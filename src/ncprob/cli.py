"""Command-line front end: scenario files in, reports/densities/flow traces out.

Subcommands: idiv | convolve | flow | limit-run | bp-check | circle-run.
Exit codes: 0 ok, 2 validation failure, 3 numerical failure, 4 bp-check
verdicts that disagree (the report is written).  Reports are
byte-identical across reruns of the same scenario: no wall clock, fixed
iteration order, canonical grids embedded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from .circle import (
    DISK_GRID,
    CircleArraySpec,
    CircleGenerator,
    circle_reports,
)
from .convolutions import (
    boolean_convolve,
    classical_convolve,
    free_convolve,
    monotone_convolve,
)
from .errors import NumericalError, ValidationError
from .harness import (
    ArraySpec,
    DEFAULT_NS,
    OPS,
    T_GRID,
    bp_crosscheck,
    run_powers,
    subprobability_equivalence,
)
from .idiv import (
    FLOW_STEP,
    LevyTriple,
    boolean_idiv,
    classical_idiv_density,
    free_idiv_atom,
    free_idiv_eval,
    monotone_idiv_atom,
    monotone_idiv_eval,
    monotone_idiv_flow,
)
from .measures import MASS_TOL, CircleMeasure, FiniteAtomicMeasure, PARAMETER
from .transforms import ATOM_THRESHOLD, ZR, line_density

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_DISAGREEMENT = 4

#: work caps on the arguments, each far above every shipped scenario: density
#: bins, an array's row sizes n and powers k, its number of rows, and the
#: smallest flow step of a circle scenario (its table of RK4 steps holds
#: 1/flow_step entries a row); the largest step is the disk flow's own bound
MAX_BINS = 10**5
MAX_ROW_SIZE = 2**16
MAX_ROWS = 32
MIN_CIRCLE_FLOW_STEP = 1e-5
MAX_CIRCLE_FLOW_STEP = 1e-2

#: the keys a scenario of each space may set besides space and array; any other is refused
_SCENARIO_KEYS = {"real": ("triple", "ops", "tolerance"),
                  "circle": ("generator", "flow_step", "tolerance")}

#: the scenario keys that a flag of the same name stands in for: each one's rule, in
#: words and as a test, holds for the flag's value too
_SETTINGS = {
    "tolerance": ("finite and above 0", lambda v: 0 < v < math.inf),
    "flow_step": (f"at least {MIN_CIRCLE_FLOW_STEP} and at most {MAX_CIRCLE_FLOW_STEP}",
                  lambda v: MIN_CIRCLE_FLOW_STEP <= v <= MAX_CIRCLE_FLOW_STEP),
}


def _load_json(path, kind):
    """The scenario or measure file at path, each number in it a finite float.

    Integers too: one past the float range, or past Python's 4,300-digit
    int-string limit, is refused.  They stay ints, so a report writes 1 as 1.
    A file that is not UTF-8 text or not JSON is refused by name; a path that
    cannot be opened raises its OSError, which names the path too.
    """
    def finite(text, convert=float):
        if not math.isfinite(float(text)):
            shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
            raise ValidationError(f"{kind} numbers must be finite; got {shown}")
        return convert(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=finite, parse_constant=finite,
                             parse_int=lambda text: finite(text, int))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{kind} file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def _object(value, name, required, optional=()):
    """value, a JSON object with every key of required and no key outside required + optional."""
    if not isinstance(value, dict):
        raise ValidationError(f"{name} must be a JSON object; got {value!r}")
    for key in required:
        if key not in value:
            raise ValidationError(f"{name} needs the key {key!r}")
    keys = required + optional
    for key in value:
        if key not in keys:
            raise ValidationError(f"{name} takes no key {key!r}; its keys are {', '.join(keys)}")
    return value


def _number(value, name):
    """value, which must be a JSON number: not a string, true or false."""
    if type(value) not in (int, float):
        raise ValidationError(f"{name} must be a number; got {value!r}")
    return value


def _is_integer(value):
    """Whether value is a JSON integer; 16.0 counts as one."""
    return type(value) is int or type(value) is float and value.is_integer()


def _pairs(value, name):
    """value, a list of [number, number] pairs (atoms of a sigma)."""
    if not isinstance(value, list) or not all(isinstance(p, list) and len(p) == 2 for p in value):
        raise ValidationError(f"{name} must be a list of [number, number] pairs; got {value!r}")
    for i, pair in enumerate(value):
        for v in pair:
            _number(v, f"{name}[{i}]")
    return value


def _setting(scenario, args, key):
    """scenario[key], else the flag of the same name, checked by its rule in _SETTINGS."""
    value = _number(scenario.get(key, getattr(args, key)), key)
    rule, holds = _SETTINGS[key]
    if not holds(value):
        raise ValidationError(f"{key} must be {rule}; got {value!r}")
    return value


def _load_scenario(path, command, space):
    """The scenario file of a command that reads the given space."""
    scenario = _load_json(path, "scenario")
    if isinstance(scenario, dict) and scenario.get("space") != space:
        raise ValidationError(f"{command} reads {space} scenarios; got space "
                              f"{scenario.get('space')!r}")
    _object(scenario, f"a {space} scenario", ("space", "array"), _SCENARIO_KEYS[space])
    # only limit-run on a probability limit reads ops, but bp-check refuses bad ones too
    ops = scenario.get("ops", [])
    if not isinstance(ops, list) or any(op not in OPS for op in ops):
        raise ValidationError(f"ops must be a list of {', '.join(OPS)}; got {ops!r}")
    return scenario


def _row_sizes(array, key):
    """array[key] (n_values or k_values, default DEFAULT_NS) as a tuple of integers >= 1,
    within MAX_ROWS and MAX_ROW_SIZE."""
    sizes = array.get(key, list(DEFAULT_NS))
    if not isinstance(sizes, list) or not all(_is_integer(v) and v >= 1 for v in sizes):
        raise ValidationError(f"array.{key} must be a list of integers >= 1; got {sizes!r}")
    if len(sizes) > MAX_ROWS or any(v > MAX_ROW_SIZE for v in sizes):
        raise ValidationError(f"array.{key} takes at most {MAX_ROWS} values, "
                              f"each at most {MAX_ROW_SIZE}")
    return tuple(sizes)


def _k_values(array, ns):
    """array.k_values, checked to align with ns and to increase strictly, or None."""
    if "k_values" not in array:
        return None
    ks = _row_sizes(array, "k_values")
    if len(ks) != len(ns):
        raise ValidationError("array.k_values must align with array.n_values")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("array.k_values must be strictly increasing")
    return ks


def _real_spec(array):
    _object(array, "array", ("family",), ("lam", "c", "shift_scale", "n_values", "k_values"))
    ns = _row_sizes(array, "n_values")
    lam = _number(array.get("lam", 1.0), "array.lam")
    c = _number(array.get("c", 1.0), "array.c")
    shift_scale = _number(array.get("shift_scale", 0.0), "array.shift_scale")
    family = array["family"]
    if family == "bernoulli_clt":
        spec = ArraySpec.bernoulli_clt(ns)
    elif family == "poisson":
        spec = ArraySpec.poisson(lam, ns)
    elif family == "damped_poisson":
        spec = ArraySpec.damped_poisson(lam, c, shift_scale, ns)
    elif family == "fixed_bernoulli":
        spec = ArraySpec.fixed(n_values=ns)
    else:
        raise ValidationError("array.family of a real scenario is one of bernoulli_clt, "
                              f"poisson, damped_poisson, fixed_bernoulli; got {family!r}")
    ks = _k_values(array, ns)
    return spec if ks is None else dataclasses.replace(spec, ks=ks)


def _generator(obj, name):
    """The circle generator of obj's beta and sigma: the array's own or the scenario's."""
    sigma = CircleMeasure.from_pairs(_pairs(obj["sigma"], f"{name}.sigma"), role=PARAMETER)
    return CircleGenerator(float(_number(obj["beta"], f"{name}.beta")), sigma)


def _circle_spec(array, flow_step):
    _object(array, "array", ("family", "beta", "sigma"), ("rotation_ell", "n_values"))
    family = array["family"]
    if family not in ("semigroup", "rotated_semigroup"):
        raise ValidationError("array.family of a circle scenario is semigroup or "
                              f"rotated_semigroup; got {family!r}")
    ns = _row_sizes(array, "n_values")
    gen = _generator(array, "array")
    ell = array.get("rotation_ell", 0)
    if not (ell == "half" or _is_integer(ell)):
        raise ValidationError(f'array.rotation_ell must be an integer or "half"; got {ell!r}')
    if family == "semigroup" and "rotation_ell" in array:
        raise ValidationError("array.rotation_ell belongs to rotated_semigroup; "
                              "a semigroup array is not rotated")
    if family == "rotated_semigroup" and ell == 0:
        raise ValidationError("array.rotation_ell must be non-zero: l = 0 leaves "
                              "a rotated_semigroup array unrotated")
    return CircleArraySpec(gen, ns, flow_step, ell if ell == "half" else int(ell))


def parse_sigma_arg(text):
    """pos:weight,pos:weight ('' for the zero measure)."""
    pairs = []
    if text.strip():
        for chunk in text.split(","):
            try:
                pos, w = chunk.split(":")
                pairs.append((float(pos), float(w)))
            except ValueError as exc:
                raise ValidationError(f"bad sigma atom {chunk!r}") from exc
    return FiniteAtomicMeasure.from_pairs(pairs, role=PARAMETER)


def _dump_json(obj, path):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _write_csv(path, header_lines, rows):
    """Header lines as comments, then one line of repr'd values per row (rows of equal length)."""
    text = "".join(f"# {line}\n" for line in header_lines)
    if rows:
        line = ",".join(["%r"] * len(rows[0])) + "\n"
        text += "".join([line % tuple(row) for row in rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_svg(path, points):
    """Single-polyline plot on a 640 x 360 view box, no external renderer."""
    width, height = 640, 360
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y1 = max(ys) if max(ys) > 0 else 1.0
    span_x = (x1 - x0) or 1.0
    coords = " ".join(
        f"{(x - x0) / span_x * width:.2f},{height - y / y1 * (height - 10):.2f}"
        for x, y in points
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">'
            f'<polyline fill="none" stroke="black" stroke-width="1" points="{coords}"/>'
            "</svg>\n"
        )


def _grid_json(points):
    return [[z.real, z.imag] for z in points]


def _provenance(args, op):
    return [
        f"ncprob {__version__} idiv",
        f"op={op} m={args.m!r} gamma={args.gamma!r} sigma={args.sigma!r}",
        f"grid_eps={args.grid_eps!r} x_window={args.x_window} bins={args.bins}",
    ]


def _parse_window(text):
    try:
        lo, hi = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"bad window {text!r}; expected lo:hi") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValidationError(f"window bounds must be finite, got {text!r}")
    if hi <= lo:
        raise ValidationError("window must satisfy lo < hi")
    return lo, hi


def _emit_atoms(args, out, engine, atoms, **fields):
    """(position, weight) pairs as {out}_atoms.csv or, with extra fields, .json."""
    if args.format == "csv":
        _write_csv(f"{out}_atoms.csv",
                   [f"ncprob {__version__} {engine}", "position,weight"], atoms)
    else:
        _dump_json({"engine": engine, "atoms": atoms, **fields}, f"{out}_atoms.json")


def cmd_idiv(args):
    triple = LevyTriple(args.m, args.gamma, parse_sigma_arg(args.sigma))
    out = args.output or "ncprob_idiv"
    lo, hi = _parse_window(args.x_window)
    eps = args.grid_eps
    if not (math.isfinite(eps) and eps > 0):
        raise ValidationError(f"--grid-eps must be finite and positive, got {eps!r}")
    if args.bins > MAX_BINS:
        raise ValidationError(f"--bins must be at most {MAX_BINS}, got {args.bins}")
    if args.op == "boolean":
        law = boolean_idiv(triple)
        _emit_atoms(args, out, "boolean-idiv", law.to_json_pairs(), mass=law.mass)
        return EXIT_OK
    if args.op == "classical":
        xs, dens = classical_idiv_density(triple)
        keep = [(x, d) for x, d in zip(xs.tolist(), dens.tolist()) if lo <= x <= hi]
        if not keep:
            raise ValidationError(f"--x-window {args.x_window} holds no point of the "
                                  f"classical density grid [{xs[0]:.4f}, {xs[-1]:.4f}]")
        _write_csv(f"{out}_density.csv", _provenance(args, "classical") + ["x,density"], keep)
        if args.svg:
            _write_svg(f"{out}_density.svg", keep)
        return EXIT_OK
    # the law's one possible atom is known in closed form, so G is read on the grid only
    if args.op == "monotone":
        engine, atom = monotone_idiv_eval, monotone_idiv_atom(triple)
    else:  # free
        engine, atom = free_idiv_eval, free_idiv_atom(triple)
    density = line_density(lambda z: 1.0 / engine(triple, z), eps, (lo, hi), args.bins)
    shown = atom is not None and atom[1] > ATOM_THRESHOLD and lo <= atom[0] <= hi
    _write_csv(f"{out}_density.csv", _provenance(args, args.op) + ["x,density"], density)
    _emit_atoms(args, out, f"{args.op}-idiv", [list(atom)] if shown else [])
    if args.svg:
        _write_svg(f"{out}_density.svg", density)
    return EXIT_OK


def _load_measure(path):
    return FiniteAtomicMeasure.from_pairs(_load_json(path, "measure"))


def cmd_convolve(args):
    mu, nu = _load_measure(args.a), _load_measure(args.b)
    out = args.output or "ncprob_convolve"
    if args.op == "free":
        if args.format == "csv":
            raise ValidationError("--format csv does not apply to --op free: "
                                  "its transform grid is written as JSON only")
        grid = free_convolve(mu, nu)
        _dump_json(
            {"engine": "free-subordination", "grid": _grid_json(ZR),
             "values": _grid_json(grid.values.tolist()), "kind": "F", "mass": grid.mass},
            f"{out}_grid.json",
        )
        return EXIT_OK
    fn = {"classical": classical_convolve, "boolean": boolean_convolve,
          "monotone": monotone_convolve}[args.op]
    conv = fn(mu, nu)
    _emit_atoms(args, out, f"{args.op}-convolve", conv.to_json_pairs(), mass=conv.mass)
    return EXIT_OK


def cmd_flow(args):
    triple = LevyTriple(args.m, args.gamma, parse_sigma_arg(args.sigma))
    result = monotone_idiv_flow(triple, args.t_end, args.flow_step)
    rows = []
    for t, grid in zip(result.times, result.grids):
        for z, v in zip(ZR, grid.values.tolist()):
            rows.append((t, z.real, z.imag, v.real, v.imag))
    header = [
        f"ncprob {__version__} flow",
        f"m={args.m!r} gamma={args.gamma!r} sigma={args.sigma!r} "
        f"t_end={args.t_end!r} flow_step={args.flow_step!r}",
        "t,re_z,im_z,re_F,im_F",
    ]
    _write_csv(args.output or "ncprob_flow.csv", header, rows)
    return EXIT_OK


def _write_report(args, scenario, result, correction=None):
    """A scenario command's report, {scenario, grids, result, version}, as JSON.

    grids holds the canonical grids of the scenario's space; a circle-run
    correction, when there is one, is the ``rotation_correction`` section.
    """
    if scenario["space"] == "circle":
        grids = {"disk": _grid_json(DISK_GRID)}
    else:
        grids = {"zr": _grid_json(ZR), "t_grid": list(T_GRID)}
    report = {"scenario": scenario, "grids": grids, "result": result, "version": __version__}
    if correction is not None:
        report["rotation_correction"] = correction
    _dump_json(report, args.output)


def _triple(obj):
    """The Levy triple of a real scenario's triple {m, gamma, sigma}."""
    _object(obj, "triple", ("m", "gamma", "sigma"))
    return LevyTriple.from_parts(_number(obj["m"], "triple.m"),
                                 _number(obj["gamma"], "triple.gamma"),
                                 _pairs(obj["sigma"], "triple.sigma"))


def cmd_limit_run(args):
    scenario = _load_scenario(args.scenario, "limit-run", "real")
    tol = _setting(scenario, args, "tolerance")
    spec = _real_spec(scenario["array"])
    triple = _triple(scenario["triple"]) if "triple" in scenario else spec.limit
    if triple.m < 1.0 - MASS_TOL:
        result = subprobability_equivalence(spec, triple, tol)
    else:
        ops = scenario.get("ops", OPS)
        result = {
            "ops": {op: run_powers(spec, op, triple, tol) for op in ops},
            "tolerance": tol,
        }
    _write_report(args, scenario, result)
    return EXIT_OK


def cmd_bp_check(args):
    scenario = _load_scenario(args.scenario, "bp-check", "real")
    tol = _setting(scenario, args, "tolerance")
    spec = _real_spec(scenario["array"])
    if "triple" in scenario:
        spec = dataclasses.replace(spec, limit=_triple(scenario["triple"]))
    result = bp_crosscheck(spec, tol)
    _write_report(args, scenario, result)
    return EXIT_OK if result["agreement"] else EXIT_DISAGREEMENT


def cmd_circle_run(args):
    scenario = _load_scenario(args.scenario, "circle-run", "circle")
    tol = _setting(scenario, args, "tolerance")
    spec = _circle_spec(scenario["array"], _setting(scenario, args, "flow_step"))
    gen = spec.generator
    if "generator" in scenario:
        gen = _generator(_object(scenario["generator"], "generator", ("beta", "sigma")),
                         "generator")
    result, correction = circle_reports(spec, gen, tol)
    _write_report(args, scenario, result, correction)
    return EXIT_OK


def _add_triple_args(p):
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--sigma", type=str, default="",
                   help="atoms as pos:weight,pos:weight ('' for zero)")


_OPTIONS = {
    "grid-eps": {"type": float, "default": 1e-3},
    "flow-step": {"type": float, "default": FLOW_STEP},
    "tolerance": {"type": float, "default": 0.05},
    "output": {"type": str, "default": None},
    "format": {"choices": ["json", "csv"], "default": "json"},
    "svg": {"action": "store_true"},
}


def _add_options(p, *names):
    """The shared options, each on the subcommands that read it."""
    for name in names:
        p.add_argument("--" + name, dest=name.replace("-", "_"), **_OPTIONS[name])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncprob",
        description="Convolution calculus and limit-theorem checks for "
                    "classical, free, Boolean and monotone independence.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("idiv", help="laws of a Levy triple: atoms or density")
    _add_triple_args(p)
    p.add_argument("--op", choices=OPS, required=True)
    p.add_argument("--x-window", dest="x_window", type=str, default="-6:6")
    p.add_argument("--bins", type=int, default=400)
    _add_options(p, "grid-eps", "output", "format", "svg")

    p = sub.add_parser("convolve", help="convolve two atomic measures")
    p.add_argument("--op", choices=OPS, required=True)
    p.add_argument("--a", required=True, help="measure JSON [[pos, weight], ...]")
    p.add_argument("--b", required=True)
    _add_options(p, "output", "format")

    p = sub.add_parser("flow", help="dump flow snapshots as CSV")
    _add_triple_args(p)
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    _add_options(p, "flow-step", "output")

    # of the scenario commands only circle-run integrates a flow by RK4 (on the disk)
    for name, step in (("limit-run", ()), ("bp-check", ()), ("circle-run", ("flow-step",))):
        p = sub.add_parser(name)
        p.add_argument("scenario", help="scenario JSON path")
        _add_options(p, "tolerance", *step, "output")

    return parser


#: built once; argparse parsers keep no state between parse_args calls
_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    # the command is looked up at call time, so a wrapped cmd_* takes effect
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    # an OSError names its path: a missing or unreadable input, or an output
    # path that is a directory
    except (ValidationError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
