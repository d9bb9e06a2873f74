"""Seeded contract test of the command line: arbitrary arguments and scenario files.

Each draw builds the argument list of one of the six subcommands, and its
measure or scenario files, from pools that hold the values that broke the
CLI before: 0, -0.0, 1e+-300, nan, inf, JSON integers past the float range,
near-coincident atoms and counts out of range; the scenario commands also
draw --tolerance, whose value keeps the rule of the scenario key.  Now and
then a measure or scenario path is a kind of file no command can read: a
directory, a file that is not UTF-8 (the bytes ff fe) or an empty file.
``cli.main`` must return 0, 2, 3 or 4 within ALARM_S seconds and raise
nothing, and exactly 2 when a path it reads is such a file.  A count that
passes validation stays far below the cap that guards it (n, k and bins at
most 64, flow steps at least 1e-3 and end times at most 2), so no draw runs
the work a cap exists to refuse; the caps themselves are drawn only past
their limits.
"""

import contextlib
import json
import math
import random
import signal
import warnings

import pytest

from ncprob import cli

#: seconds one call may take; the slowest of 7,200 draws took 1.8 s
ALARM_S = 20

COMMANDS = ("idiv", "convolve", "flow", "limit-run", "bp-check", "circle-run")
OPS = ("classical", "free", "boolean", "monotone")

#: each parameter's pool of valid values, edges first, and of invalid ones
POSITIONS = (0.0, -0.0, 1e-300, -1e-300, 1e-16, 1e300, -1e300, 1.0, -1.0, 0.5, 0.3, 2.0,
             -1.5, 1e-9)
WEIGHTS = (1e-300, 1e-16, 1e300, 1e-9, 0.5, 1.0, 2.0, 0.3)
MASSES = (1e-300, 1e-9, 0.5, 0.999, 1.0, 1.0000000005)
TOLERANCES = (1e-300, 0.05, 0.5, 1e300)
NON_FINITE = (math.nan, math.inf, -math.inf)
#: JSON integers past the float range, of 401 digits and of 4,401 (past Python's
#: int-string limit); dump writes them into the files as bare integers
HUGE_INTS = ("1" + "0" * 400, "-1" + "0" * 4400)
BAD_NUMBERS = NON_FINITE + HUGE_INTS
BAD_WEIGHTS = (0.0, -0.0, -1.0) + NON_FINITE
BAD_MASSES = (0.0, -0.0, -1.0, 2.0, 1e300) + NON_FINITE
BAD_TOLERANCES = (0.0, -1.0, math.nan, math.inf)
#: counts: valid ones far below every cap, and ones past a cap or below 1
COUNTS = (1, 2, 5, 21, 64)
BAD_COUNTS = (0, -1, cli.MAX_ROW_SIZE + 1, 10**9)
BAD_BINS = (0, -1, cli.MAX_BINS + 1, 10**9)
#: flow steps and end times: valid ones cheap to run, and invalid ones
STEPS = (1e-3, 2e-3, 1e-2)
BAD_STEPS = (0.02, 1e-6, 1e-300, 0.0, -1e-3) + NON_FINITE
T_ENDS = (0.0, 0.5, 1.0, 2.0)
BAD_T_ENDS = (-1.0, 1e9) + NON_FINITE
#: the contents of the files no command can read; a directory is the third kind
UNREADABLE = (b"\xff\xfe", b"")


def pick(rng, valid, invalid, p_invalid=0.05):
    return rng.choice(invalid if rng.random() < p_invalid else valid)


def dump(obj):
    """obj as JSON text, each HUGE_INTS string in it written as a bare integer."""
    text = json.dumps(obj)
    for number in HUGE_INTS:
        text = text.replace(f'"{number}"', number)
    return text


def write(rng, path, text):
    """text into the file at path or, one time in ten, a directory or an UNREADABLE file there."""
    if path.is_dir():
        path.rmdir()
    roll = rng.random()
    if roll < 0.1 / 3:
        path.unlink(missing_ok=True)
        path.mkdir()
    else:
        path.write_bytes(rng.choice(UNREADABLE) if roll < 0.1 else text.encode())


def unreadable(path):
    return path.is_dir() or path.read_bytes() in UNREADABLE


def atoms(rng, normalized):
    """1-4 (position, weight) pairs, some of them near-coincident."""
    pos = [pick(rng, POSITIONS, BAD_NUMBERS) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        pos.append(pos[0] * (1.0 + 1e-15) if isinstance(pos[0], float) and pos[0] else 1e-300)
    if normalized:
        weights = [rng.uniform(0.1, 1.0) for _ in pos]
        weights = [w / sum(weights) for w in weights]
    else:
        weights = [pick(rng, WEIGHTS, BAD_WEIGHTS) for _ in pos]
    return [[p, w] for p, w in zip(pos, weights)]


def sigma_arg(rng):
    if rng.random() < 0.1:
        return "--sigma="
    return "--sigma=" + ",".join(f"{p}:{w}" for p, w in atoms(rng, False))


def triple_args(rng):
    return [f"--m={pick(rng, MASSES, BAD_MASSES)!r}",
            f"--gamma={pick(rng, POSITIONS, NON_FINITE)!r}", sigma_arg(rng)]


def sizes(rng):
    """n_values or k_values: usually valid and small, sometimes out of range or unordered."""
    roll = rng.random()
    if roll < 0.85:
        return sorted(rng.sample((1, 2, 4, 8, 16, 32, 64), rng.randint(1, 4)))
    if roll < 0.9:
        return [pick(rng, COUNTS, BAD_COUNTS, 0.5) for _ in range(rng.randint(0, 3))]
    if roll < 0.95:
        return list(range(1, cli.MAX_ROWS + 2))
    return [16, 8]


def maybe(rng, scenario, key, value, p=0.5):
    if rng.random() < p:
        scenario[key] = value


def draw_idiv(rng, tmp):
    argv = ["idiv", "--op", rng.choice(OPS), *triple_args(rng),
            f"--bins={pick(rng, COUNTS, BAD_BINS)}"]
    if rng.random() < 0.3:
        argv.append(f"--grid-eps={pick(rng, (1e-300, 1e-3, 0.5, 1e300), BAD_WEIGHTS)!r}")
    if rng.random() < 0.3:
        lo, hi = sorted(pick(rng, POSITIONS, NON_FINITE, 0.1) for _ in range(2))
        argv.append(f"--x-window={lo!r}:{hi!r}")
    if rng.random() < 0.2:
        argv.append("--format=csv")
    if rng.random() < 0.2:
        argv.append("--svg")
    return argv + ["--output", str(tmp / "out")]


def draw_convolve(rng, tmp):
    for name in ("a", "b"):
        write(rng, tmp / f"{name}.json", dump(atoms(rng, rng.random() < 0.8)))
    argv = ["convolve", "--op", rng.choice(OPS), "--a", str(tmp / "a.json"),
            "--b", str(tmp / "b.json")]
    if rng.random() < 0.2:
        argv.append("--format=csv")
    return argv + ["--output", str(tmp / "out")]


def draw_flow(rng, tmp):
    argv = ["flow", *triple_args(rng), f"--t-end={pick(rng, T_ENDS, BAD_T_ENDS)!r}"]
    if rng.random() < 0.8:
        argv.append(f"--flow-step={pick(rng, STEPS, BAD_STEPS)!r}")
    return argv + ["--output", str(tmp / "flow.csv")]


#: the array keys each real family reads besides n_values and k_values
REAL_FAMILY_KEYS = {"bernoulli_clt": (), "poisson": ("lam",),
                    "damped_poisson": ("lam", "c", "shift_scale"), "fixed_bernoulli": ()}


def real_scenario(rng):
    family = rng.choice(tuple(REAL_FAMILY_KEYS))
    array = {"family": family}
    # a key the family does not read is refused, so it is drawn only now and then
    for key in ("lam", "c", "shift_scale"):
        p = 0.3 if key in REAL_FAMILY_KEYS[family] else 0.03
        maybe(rng, array, key, pick(rng, WEIGHTS + POSITIONS, BAD_NUMBERS), p)
    array["n_values"] = ns = sizes(rng)
    maybe(rng, array, "k_values", [2 * n for n in ns] if rng.random() < 0.7 else sizes(rng), 0.2)
    scenario = {"space": "real", "array": array}
    maybe(rng, scenario, "triple", {"m": pick(rng, MASSES, BAD_MASSES),
                                    "gamma": pick(rng, POSITIONS, BAD_NUMBERS),
                                    "sigma": atoms(rng, False)}, 0.4)
    maybe(rng, scenario, "tolerance", pick(rng, TOLERANCES, BAD_TOLERANCES), 0.3)
    maybe(rng, scenario, "ops", rng.sample(OPS, rng.randint(1, 4)), 0.3)
    maybe(rng, scenario, "flow_step", 1e-3, 0.05)
    return scenario


def circle_scenario(rng):
    family = rng.choice(("semigroup", "rotated_semigroup"))
    array = {"family": family, "beta": pick(rng, POSITIONS, BAD_NUMBERS),
             "sigma": atoms(rng, False),
             "n_values": [n for n in sizes(rng) if n <= 16] or [1]}
    if family == "rotated_semigroup" or rng.random() < 0.1:
        array["rotation_ell"] = rng.choice((1, -1, 0, 3, 2**40, "half"))
    scenario = {"space": "circle", "array": array}
    maybe(rng, scenario, "generator", {"beta": pick(rng, POSITIONS, BAD_NUMBERS),
                                       "sigma": atoms(rng, False)}, 0.3)
    maybe(rng, scenario, "flow_step", pick(rng, STEPS, BAD_STEPS), 0.5)
    maybe(rng, scenario, "tolerance", pick(rng, TOLERANCES, BAD_TOLERANCES), 0.2)
    return scenario


def draw_scenario(command):
    def draw(rng, tmp):
        scenario = circle_scenario(rng) if command == "circle-run" else real_scenario(rng)
        if rng.random() < 0.05:  # the other space
            scenario["space"] = "real" if scenario["space"] == "circle" else "circle"
        path = tmp / "scenario.json"
        write(rng, path, dump(scenario))
        argv = [command, str(path)]
        if rng.random() < 0.3:
            argv.append(f"--tolerance={pick(rng, TOLERANCES, BAD_TOLERANCES, 0.3)!r}")
        if command == "circle-run" and rng.random() < 0.3:
            argv.append(f"--flow-step={pick(rng, STEPS, BAD_STEPS)!r}")
        return argv + ["--output", str(tmp / "report.json")]

    return draw


DRAW = {"idiv": draw_idiv, "convolve": draw_convolve, "flow": draw_flow,
        **{c: draw_scenario(c) for c in ("limit-run", "bp-check", "circle-run")}}


@contextlib.contextmanager
def alarm(seconds, argv):
    def expire(signum, frame):
        raise TimeoutError(f"ncprob {' '.join(argv)} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run_draws(seed, count, tmp):
    """count draws of seed, the commands in turn; returns the exit codes seen."""
    rng = random.Random(seed)
    codes = set()
    for i in range(count):
        argv = DRAW[COMMANDS[i % len(COMMANDS)]](rng, tmp)
        paths = [tmp / name for name in ("a.json", "b.json", "scenario.json")
                 if str(tmp / name) in argv]
        files = {path.name: "<directory>" if path.is_dir() else path.read_bytes()
                 for path in paths}
        # overflow in the 1e300 draws is expected on the way to an answer or an error,
        # and the command line does not stop on it
        with alarm(ALARM_S, argv), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                raise AssertionError(f"draw {i} of seed {seed} raised: ncprob {' '.join(argv)} "
                                     f"with {files}") from exc
        assert code in (0, 2, 3, 4), f"draw {i} of seed {seed}: exit {code}: {argv} {files}"
        if any(unreadable(path) for path in paths):
            assert code == 2, f"draw {i} of seed {seed}: exit {code} on an unreadable file: " \
                              f"{argv} {files}"
        codes.add(code)
    return codes


@pytest.mark.parametrize("seed", range(4))
def test_cli_returns_a_contract_exit_code(tmp_path, capsys, seed):
    codes = run_draws(seed, 25, tmp_path)
    assert {0, 2} <= codes


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(100, 108))
def test_cli_returns_a_contract_exit_code_on_many_draws(tmp_path, capsys, seed):
    run_draws(seed, 300, tmp_path)
