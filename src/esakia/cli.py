"""Command line front end.

Every verb reads models as JSON, either from a file path or inline (an
argument starting with ``{`` or ``[`` is parsed as JSON directly), and
writes deterministic JSON or DOT to stdout.  Exit codes: 0 success,
2 usage error (including an ``ESAKIA_*`` bound that is not a non-negative
integer, and a ``check`` flag for the other kind of model), 3 unreadable
or malformed JSON, 4 invalid model, 5 size bound exceeded.  A call
builds only the parser of the verb it names, and the full parser tree
only for top-level help and usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dot
from .duality import dual_space, phi_table, unit_counit_check
from .errors import BoundSettingError, ModelError, SizeBoundError
from .lattices import (
    FiniteLattice,
    is_scattered_frame,
    lattice_from_json_dict,
)
from .nuclei import (
    _every_nucleus_w_decomposes,
    assembly_frame,
    assembly_booleanization_check,
    enumerate_nuclei_oracle,
    is_assembly_boolean,
    nucleus_to_json_dict,
    tower,
)
from .posets import FinitePoset, iter_bits
from .spatial import (
    assembly_spatial_report,
    essential_primes_dual,
    gamma_report,
    join_primes_of_assembly,
    nuclear_points,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_BAD_MODEL = 4
EXIT_BOUND = 5

# the flags of ``check`` for each kind of model
_LATTICE_CHECKS = ("duality", "boolean", "spatial", "wdecomp", "tower")
_SPACE_CHECKS = ("simmons", "compactification")


def _load_json(arg: str):
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        text = Path(arg).read_text(encoding="utf-8")
    return json.loads(text)


def _lattice_arg(arg: str) -> FiniteLattice:
    data = _load_json(arg)
    if isinstance(data, dict) and "elements" in data and "opens" not in data:
        return lattice_from_json_dict(data)
    raise ModelError("expected a lattice object with elements and leq")


def _poset_arg(arg: str) -> FinitePoset:
    data = _load_json(arg)
    if isinstance(data, dict) and "elements" in data:
        return FinitePoset.from_json_dict(data)
    raise ModelError("expected a poset object with elements and leq")


def _space_arg(arg: str):
    from .spaces import FiniteSpace

    data = _load_json(arg)
    if isinstance(data, dict) and "points" in data and "opens" in data:
        return FiniteSpace.from_json_dict(data)
    raise ModelError("expected a space object with points and opens")


def _report_json(report) -> dict:
    """A report dataclass as JSON: every field not marked
    ``metadata={"json": False}``, plus every property."""
    out = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.metadata.get("json", True)
    }
    for name, attr in vars(type(report)).items():
        if isinstance(attr, property):
            out[name] = getattr(report, name)
    return out


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _strict_pairs(poset: FinitePoset) -> list[list[str]]:
    pairs = []
    for i in range(poset.n):
        for k in range(poset.n):
            if i != k and poset.leq_i(i, k):
                pairs.append([poset.elements[i], poset.elements[k]])
    return sorted(pairs)


def _cmd_dual(args) -> int:
    lat = _lattice_arg(args.lattice)
    space = dual_space(lat)
    table = phi_table(space)
    out = {
        "points": list(space.poset.elements),
        "leq": _strict_pairs(space.poset),
        "phi": {
            lat.labels[a]: sorted(
                space.poset.elements[i] for i in iter_bits(table[a])
            )
            for a in range(lat.n)
        },
    }
    _emit(out)
    return EXIT_OK


def _cmd_assembly(args) -> int:
    lat = _lattice_arg(args.lattice)
    asm = assembly_frame(lat)
    if args.count:
        _emit(asm.lattice.n)
        return EXIT_OK
    out = {
        "size": asm.lattice.n,
        "elements": list(asm.lattice.labels),
        "leq": _strict_pairs(asm.lattice.poset),
        "boolean": is_assembly_boolean(lat).direct_boolean,
    }
    _emit(out)
    return EXIT_OK


def _cmd_nuclei(args) -> int:
    lat = _lattice_arg(args.lattice)
    nuclei = enumerate_nuclei_oracle(lat)
    if args.count:
        _emit(len(nuclei))
        return EXIT_OK
    _emit([nucleus_to_json_dict(lat, j) for j in nuclei])
    return EXIT_OK


def _cmd_points(args) -> int:
    lat = _lattice_arg(args.lattice)
    space = dual_space(lat)
    pts = nuclear_points(lat)
    report = assembly_spatial_report(lat)
    out = {
        "prime_filter_points": list(space.poset.elements),
        "nuclear_points": sorted(
            space.poset.elements[i] for i in iter_bits(pts.mask)
        ),
        "tau_opens": [
            sorted(space.poset.elements[i] for i in iter_bits(m))
            for m in pts.tau_opens
        ],
        "spatial": report.lattice_spatial,
        "assembly_spatial": report.assembly_spatial,
    }
    _emit(out)
    return EXIT_OK


def _cmd_space(args) -> int:
    from .spaces import (
        is_sober,
        open_frame,
        scatter_report,
        soberification,
        t0_reflection,
    )

    space = _space_arg(args.space)
    frame = open_frame(space)
    report = scatter_report(space)
    sob = soberification(space)
    out = {
        "points": list(space.points),
        "open_count": len(space.opens),
        "t0": space.is_t0(),
        "sober": is_sober(space),
        "t0_reflection_points": list(t0_reflection(space)[0].points),
        "soberification_matches_reflection": sob.matches_t0_reflection,
        "scatter": _report_json(report),
        "open_frame_scattered": is_scattered_frame(frame),
    }
    _emit(out)
    return EXIT_OK


def _check_lattice(args) -> dict:
    lat = _lattice_arg(args.lattice)
    wanted = {name for name in _LATTICE_CHECKS if getattr(args, name)}
    if not wanted:
        wanted = {"duality", "boolean", "spatial", "wdecomp"}
    checks: dict[str, dict] = {}
    if "duality" in wanted:
        rep = unit_counit_check(lat)
        checks["duality"] = _report_json(rep)
    if "boolean" in wanted:
        rep = is_assembly_boolean(lat)
        bool_check = assembly_booleanization_check(lat)
        checks["boolean"] = {
            "assembly": _report_json(rep),
            "booleanization": _report_json(bool_check),
            "frame_scattered": is_scattered_frame(lat),
            "ok": rep.ok and bool_check.ok,
        }
    if "spatial" in wanted:
        rep = assembly_spatial_report(lat)
        jp = join_primes_of_assembly(lat)
        gr = gamma_report(lat)
        essential = all(essential_primes_dual(lat, a).ok for a in range(lat.n))
        checks["spatial"] = {
            "report": _report_json(rep),
            "join_primes": _report_json(jp),
            "gamma": _report_json(gr),
            "essential_primes_agree": essential,
            "ok": rep.ok and jp.ok and gr.ok and essential,
        }
    if "wdecomp" in wanted:
        checks["wdecomp"] = {"ok": _every_nucleus_w_decomposes(lat)}
    if "tower" in wanted:
        result = tower(lat)
        checks["tower"] = _report_json(result)
    return {
        "model": "lattice",
        "checks": checks,
        "ok": all(c["ok"] for c in checks.values()),
    }


def _check_space(args) -> dict:
    from .spaces import compactification_check, simmons_isbell_report

    space = _space_arg(args.space)
    wanted = {name for name in _SPACE_CHECKS if getattr(args, name)} or set(_SPACE_CHECKS)
    checks: dict[str, dict] = {}
    if "simmons" in wanted:
        rep = simmons_isbell_report(space)
        checks["simmons"] = _report_json(rep)
    if "compactification" in wanted:
        rep = compactification_check(space)
        checks["compactification"] = _report_json(rep)
    return {
        "model": "space",
        "checks": checks,
        "ok": all(c["ok"] for c in checks.values()),
    }


def _cmd_check(args) -> int:
    if args.lattice is not None:
        model, other = "lattice", _SPACE_CHECKS
    else:
        model, other = "space", _LATTICE_CHECKS
    stray = [name for name in other if getattr(args, name)]
    if stray:
        parser = argparse.ArgumentParser(prog="esakia check")
        _check_args(parser)
        parser.error(f"argument --{stray[0]}: not allowed with argument --{model}")
    out = _check_lattice(args) if model == "lattice" else _check_space(args)
    _emit(out)
    return EXIT_OK if out["ok"] else 1


def _size(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return int(text)


def _cmd_sweep(args) -> int:
    from .sweeps import run_sweep  # runtime import; sweeps loads spaces

    summary = run_sweep(args.kind, args.n, args.suite)
    _emit(_report_json(summary))
    return EXIT_OK if summary.ok else 1


def _cmd_export_dot(args) -> int:
    highlight = args.highlight or []
    if args.poset is not None:
        poset = _poset_arg(args.poset)
        what = args.what or "poset"
        if what != "poset":
            raise ModelError(f"--poset only supports --what poset, got {what!r}")
        text = dot.poset_dot(poset, highlight=frozenset(highlight))
    elif args.lattice is not None:
        lat = _lattice_arg(args.lattice)
        what = args.what or "lattice"
        if what == "lattice":
            text = dot.lattice_dot(lat, highlight=frozenset(highlight))
        elif what == "dual":
            if len(highlight) > 1:
                raise ModelError("--what dual takes at most one --highlight element")
            text = dot.dual_space_dot(
                lat, highlight_element=highlight[0] if highlight else None
            )
        elif what == "assembly":
            if highlight:
                raise ModelError("--what assembly shades nothing; drop --highlight")
            text = dot.assembly_dot(lat)
        else:
            raise ModelError(f"--lattice supports lattice, dual, assembly; got {what!r}")
    else:
        space = _space_arg(args.space)
        what = args.what or "space"
        if what != "space":
            raise ModelError(f"--space only supports --what space, got {what!r}")
        if highlight:
            raise ModelError("--what space shades nothing; drop --highlight")
        text = dot.space_dot(space)
    sys.stdout.write(text)
    return EXIT_OK


# Each verb's arguments.  Every adder names its command inside its body,
# so the command is looked up in this module at call time.


def _dual_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lattice", required=True, help="lattice JSON (path or inline)")
    p.set_defaults(func=_cmd_dual)


def _assembly_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lattice", required=True)
    p.add_argument("--count", action="store_true", help="print only the size")
    p.set_defaults(func=_cmd_assembly)


def _nuclei_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lattice", required=True)
    p.add_argument("--count", action="store_true", help="print only the count")
    p.set_defaults(func=_cmd_nuclei)


def _points_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lattice", required=True)
    p.set_defaults(func=_cmd_points)


def _space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", required=True, help="space JSON (path or inline)")
    p.set_defaults(func=_cmd_space)


def _check_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--lattice")
    group.add_argument("--space")
    for flag in _LATTICE_CHECKS:
        p.add_argument(f"--{flag}", action="store_true", help=f"lattice: {flag} checks")
    p.add_argument("--simmons", action="store_true", help="space: scatter and nucleus checks")
    p.add_argument(
        "--compactification", action="store_true", help="space: front embedding checks"
    )
    p.set_defaults(func=_cmd_check)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    from .sweeps import KINDS

    p.add_argument("kind", choices=tuple(KINDS))
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--suite", required=True)
    p.set_defaults(func=_cmd_sweep)


def _export_dot_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--poset")
    group.add_argument("--lattice")
    group.add_argument("--space")
    p.add_argument(
        "--what",
        choices=("poset", "lattice", "dual", "assembly", "space"),
        help="which diagram, defaults to the model itself",
    )
    p.add_argument(
        "--highlight",
        action="append",
        help="node to shade; for --what dual, the element whose point set is shaded",
    )
    p.set_defaults(func=_cmd_export_dot)


# verb -> (help line, argument adder), in the order the help lists them
_VERBS = {
    "dual": ("dual space of a finite lattice", _dual_args),
    "assembly": ("assembly frame of nuclei", _assembly_args),
    "nuclei": ("enumerate all nuclei", _nuclei_args),
    "points": ("nuclear points and spatiality", _points_args),
    "space": ("summary of a finite topological space", _space_args),
    "check": ("run verification suites on one model", _check_args),
    "sweep": ("run a suite over every instance of a size", _sweep_args),
    "export-dot": ("emit a DOT drawing", _export_dot_args),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esakia",
        description="Finite frames, nuclei, and Priestley duality workbench.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_text, add_args) in _VERBS.items():
        add_args(sub.add_parser(verb, help=help_text))
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with only the named verb's parser, which reads its arguments
    exactly as that verb's sub-parser of ``build_parser()`` does.  Anything
    else, and any argument the verb leaves over, goes to the full tree, so
    top-level help, usage and errors are argparse's own."""
    if argv and argv[0] in _VERBS:
        verb = argv[0]
        parser = argparse.ArgumentParser(prog=f"esakia {verb}")
        _VERBS[verb][1](parser)
        args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(verb=verb))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except BoundSettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SizeBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MODEL
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read model: {exc}", file=sys.stderr)
        return EXIT_BAD_JSON


if __name__ == "__main__":
    sys.exit(main())
