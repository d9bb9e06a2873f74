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

import jsonschema

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
#: 1/flow_step entries a row)
MAX_BINS = 10**5
MAX_ROW_SIZE = 2**16
MAX_ROWS = 32
MIN_CIRCLE_FLOW_STEP = 1e-5

_ARRAY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["bernoulli_clt", "poisson", "damped_poisson", "fixed_bernoulli"]},
        "lam": {"type": "number"},
        "c": {"type": "number"},
        "shift_scale": {"type": "number"},
        "n_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
        "k_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["family"],
}

_CIRCLE_ARRAY_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "family": {"enum": ["semigroup", "rotated_semigroup"]},
        "beta": {"type": "number"},
        "sigma": {"type": "array", "items": {
            "type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}},
        "rotation_ell": {"oneOf": [{"type": "integer"}, {"enum": ["half"]}]},
        "n_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
    },
    "required": ["family", "beta", "sigma"],
    # without l a rotated array would run unrotated
    "if": {"properties": {"family": {"const": "rotated_semigroup"}}},
    "then": {"required": ["rotation_ell"]},
}

_TRIPLE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "m": {"type": "number"},
        "gamma": {"type": "number"},
        "sigma": {"type": "array", "items": {
            "type": "array", "items": {"type": "number"},
            "minItems": 2, "maxItems": 2}},
    },
    "required": ["m", "gamma", "sigma"],
}

SCENARIO_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "space": {"enum": ["real", "circle"]},
        "array": {"type": "object"},
        "triple": _TRIPLE_SCHEMA,
        "generator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "number"},
                "sigma": _TRIPLE_SCHEMA["properties"]["sigma"],
            },
            "required": ["beta", "sigma"],
        },
        "ops": {"type": "array", "items": {
            "enum": ["classical", "free", "boolean", "monotone"]}},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "flow_step": {"type": "number", "exclusiveMinimum": 0, "maximum": 1e-2},
    },
    "required": ["space", "array"],
    # the space picks the array schema, so a rejected field is named as such
    "if": {"properties": {"space": {"const": "circle"}}},
    "then": {"properties": {"array": _CIRCLE_ARRAY_SCHEMA}},
    "else": {"properties": {"array": _ARRAY_SCHEMA}},
}


#: built once: jsonschema.validate would re-check the schema on every load
_VALIDATOR = jsonschema.validators.validator_for(SCENARIO_SCHEMA)(SCENARIO_SCHEMA)


def _finite(text):
    """A JSON number or NaN/Infinity constant as a float, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValidationError(f"scenario numbers must be finite; got {text}")
    return value


def _load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        scenario = json.load(fh, parse_float=_finite, parse_constant=_finite)
    # the error jsonschema.validate raises, so messages read the same
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(scenario))
    if error is not None:
        raise error
    return scenario


def _row_sizes(array, key):
    """array[key] (n_values or k_values, default DEFAULT_NS) as a tuple, within MAX_ROWS
    and MAX_ROW_SIZE."""
    sizes = tuple(array.get(key, DEFAULT_NS))
    if len(sizes) > MAX_ROWS or any(v > MAX_ROW_SIZE for v in sizes):
        raise ValidationError(f"array.{key} takes at most {MAX_ROWS} values, "
                              f"each at most {MAX_ROW_SIZE}")
    return sizes


def _k_table(array, ns):
    if "k_values" not in array:
        return None
    ks = _row_sizes(array, "k_values")
    if len(ks) != len(ns):
        raise ValidationError("array.k_values must align with array.n_values")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValidationError("array.k_values must be strictly increasing")
    return tuple(zip(ns, ks))


def _real_spec(array):
    ns = _row_sizes(array, "n_values")
    family = array["family"]
    if family == "bernoulli_clt":
        spec = ArraySpec.bernoulli_clt(ns)
    elif family == "poisson":
        spec = ArraySpec.poisson(array.get("lam", 1.0), ns)
    elif family == "damped_poisson":
        spec = ArraySpec.damped_poisson(
            array.get("lam", 1.0), array.get("c", 1.0),
            array.get("shift_scale", 0.0), ns)
    else:
        spec = ArraySpec.fixed(n_values=ns)
    table = _k_table(array, ns)
    return spec if table is None else dataclasses.replace(spec, k_table=table)


def _circle_spec(array, flow_step):
    ns = _row_sizes(array, "n_values")
    sigma = CircleMeasure.from_pairs(array["sigma"], role=PARAMETER)
    gen = CircleGenerator(float(array["beta"]), sigma)
    ell = array.get("rotation_ell", 0)
    if array["family"] == "semigroup" and "rotation_ell" in array:
        raise ValidationError("array.rotation_ell belongs to rotated_semigroup; "
                              "a semigroup array is not rotated")
    if array["family"] == "rotated_semigroup" and ell == 0:
        raise ValidationError("array.rotation_ell must be non-zero: l = 0 leaves "
                              "a rotated_semigroup array unrotated")
    if ell == "half":
        ell = lambda n: n // 2
    return CircleArraySpec.semigroup(gen, ns, flow_step=flow_step, rotation_ell=ell)


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


def _write_svg(path, points, width=640, height=360):
    """Single-polyline plot, no external renderer."""
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
    with open(path, "r", encoding="utf-8") as fh:
        return FiniteAtomicMeasure.from_pairs(json.load(fh))


def cmd_convolve(args):
    mu, nu = _load_measure(args.a), _load_measure(args.b)
    out = args.output or "ncprob_convolve"
    if args.op == "free":
        if args.format == "csv":
            raise ValidationError("--format csv does not apply to --op free: "
                                  "its transform grid is written as JSON only")
        grid = free_convolve(mu, nu)
        _dump_json(
            {"engine": "free-subordination", "grid": _grid_json(grid.points),
             "values": _grid_json(grid.values), "kind": grid.kind, "mass": grid.mass},
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
        for z, v in zip(grid.points, grid.values):
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


def _real_scenario(path, command):
    """A real-line scenario for limit-run or bp-check; flow_step is the disk flow's."""
    scenario = _load_scenario(path)
    if scenario["space"] != "real":
        raise ValidationError(f"{command} handles real-line scenarios; use circle-run")
    if "flow_step" in scenario:
        raise ValidationError("flow_step belongs to circle scenarios: a real-line scenario "
                              "reads its monotone law from the Abel equation, not an RK4 flow")
    return scenario


def cmd_limit_run(args):
    scenario = _real_scenario(args.scenario, "limit-run")
    tol = scenario.get("tolerance", args.tolerance)
    spec = _real_spec(scenario["array"])
    triple = LevyTriple.from_parts(**scenario["triple"]) if "triple" in scenario else spec.limit
    if triple.m < 1.0 - MASS_TOL:
        result = subprobability_equivalence(spec, triple, tol)
    else:
        ops = scenario.get("ops", ["classical", "free", "boolean", "monotone"])
        result = {
            "ops": {op: run_powers(spec, op, triple, tol).to_dict() for op in ops},
            "tolerance": tol,
        }
    _write_report(args, scenario, result)
    return EXIT_OK


def cmd_bp_check(args):
    scenario = _real_scenario(args.scenario, "bp-check")
    tol = scenario.get("tolerance", args.tolerance)
    spec = _real_spec(scenario["array"])
    if "triple" in scenario:
        spec = dataclasses.replace(spec, limit=LevyTriple.from_parts(**scenario["triple"]))
    result = bp_crosscheck(spec, tol)
    _write_report(args, scenario, result)
    return EXIT_OK if result["agreement"] else EXIT_DISAGREEMENT


def cmd_circle_run(args):
    scenario = _load_scenario(args.scenario)
    if scenario["space"] != "circle":
        raise ValidationError("circle-run handles circle scenarios")
    tol = scenario.get("tolerance", args.tolerance)
    step = scenario.get("flow_step", args.flow_step)
    if step < MIN_CIRCLE_FLOW_STEP:
        raise ValidationError(f"flow_step must be at least {MIN_CIRCLE_FLOW_STEP}, got {step!r}")
    spec = _circle_spec(scenario["array"], step)
    gen_obj = scenario.get("generator")
    if gen_obj is not None:
        gen = CircleGenerator(
            float(gen_obj["beta"]),
            CircleMeasure.from_pairs(gen_obj["sigma"], role=PARAMETER),
        )
    else:
        gen = spec.generator
    rotated = scenario["array"]["family"] == "rotated_semigroup"
    result, correction = circle_reports(spec, gen, tol, step, correct=rotated)
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
    p.add_argument("--op", choices=["classical", "free", "boolean", "monotone"],
                   required=True)
    p.add_argument("--x-window", dest="x_window", type=str, default="-6:6")
    p.add_argument("--bins", type=int, default=400)
    _add_options(p, "grid-eps", "output", "format", "svg")

    p = sub.add_parser("convolve", help="convolve two atomic measures")
    p.add_argument("--op", choices=["classical", "free", "boolean", "monotone"],
                   required=True)
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
    except (ValidationError, jsonschema.ValidationError, FileNotFoundError,
            json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
