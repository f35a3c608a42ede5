"""Command line interface.

Commands: describe, adm, newton, components-bound, stembridge, perm-check,
poset, oracle-suite.  Each command takes only the flags it reads: --level
belongs to adm and poset, --sigma to every command with a group but
stembridge, --mu to every one but describe.  A --config value for a flag
the command does not take is refused, and so is a --format it does not
print: components-bound prints JSON only, stembridge a table or JSON, and
only a poset prints DOT.  Output is byte-deterministic for identical
inputs; tables, TSV and DOT carry a header comment with the group, mu,
sigma, level and tool version (id and an empty level where the command
takes none), JSON carries the same data in a "meta" object.
Exit codes: 0 success, 1 domain precondition failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__, oracles
from .admissible import adm_K, kr_poset
from .affine_weyl import (
    AffineWeylError,
    ParahoricLevel,
    kottwitz,
    length,
    make_level,
    sigma_from_name,
)
from .gln_perm import PermError, adm_eq_perm_check
from .notation import format_element
from .root_datum import RootDatumError, build_root_datum, fundamental_group
from .stembridge import ChainPreconditionError, stembridge_chain
from .straight_newton import _newton_set, components_bound_report, straight_classes

FORMATS = ("table", "tsv", "json", "dot")


class ConfigError(Exception):
    """Bad command line or config file; maps to exit code 2."""


def _parse_group(text: str):
    for preset in ("GSp", "PGL", "GL", "SL"):
        digits = text[len(preset):]
        if text.startswith(preset) and digits.isascii() and digits.isdigit():
            return {"preset": preset, "n": int(digits)}
    raise ConfigError(f"cannot parse group {text!r}; expected e.g. GL3, GSp4, PGL3")


def _parse_vector(text: str):
    """Comma-separated integers; digits must be ASCII, as in --group and --level."""
    if text.isascii():
        try:
            return tuple(int(x) for x in text.split(","))
        except ValueError:
            pass
    raise ConfigError(f"cannot parse coordinate list {text!r}")


def _parse_cochar(text: str, rd, flag: str):
    vec = _parse_vector(text)
    if len(vec) != rd.rank:
        raise ConfigError(
            f"{flag} has {len(vec)} coordinates; {rd.type_label} needs {rd.rank}"
        )
    return vec


def _mu(args, rd, command: str):
    if not args.mu:
        raise ConfigError(f"{command} needs --mu")
    return _parse_cochar(args.mu, rd, "--mu")


def _parse_level(rd, text: Optional[str], sigma):
    if not text:
        return ParahoricLevel.iwahori()
    indices = []
    for item in text.split(","):
        item = item.strip()
        if item.startswith("s"):
            item = item[1:]
        if not (item.isascii() and item.isdigit()):
            raise ConfigError(f"cannot parse level generator {item!r}")
        indices.append(int(item))
    try:
        return make_level(rd, indices, sigma)
    except AffineWeylError as exc:
        raise ConfigError(str(exc)) from exc


def _build_context(args):
    """The datum and sigma of the flags, once the config file's values are set on args."""
    spec = None
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config file {args.config!r} does not hold a JSON object")
        spec = config.get("group")
        if isinstance(spec, str):
            spec = _parse_group(spec)
        # config values take precedence over flags; a key needs a flag of the command
        for key in ("mu", "sigma", "level", "format"):
            if key in config:
                value = config[key]
                if not hasattr(args, key) or not isinstance(value, str) or (key == "format" and value not in FORMATS):
                    raise ConfigError(f"config value {key}={value!r} is not accepted")
                setattr(args, key, value)
    if spec is None:
        if not getattr(args, "group", None):
            raise ConfigError("no group given; use --group or --config")
        spec = _parse_group(args.group)
    try:
        rd = build_root_datum(spec)
    except RootDatumError as exc:
        raise ConfigError(f"invalid group spec: {exc}") from exc
    try:
        return rd, sigma_from_name(rd, getattr(args, "sigma", None) or "id")
    except AffineWeylError as exc:
        raise ConfigError(str(exc)) from exc


def _check_format(args, command: str, formats) -> None:
    """Refuse a --format the command does not print; DOT keeps the message of a command without a poset."""
    if args.format == "dot":
        raise ConfigError(f"{command} has no poset; dot output is not available")
    if args.format not in (None, *formats):
        raise ConfigError(f"{command} prints {' or '.join(formats)} only; --format {args.format} is not available")


def _meta_obj(args, rd) -> dict:
    return {
        "group": rd.type_label,
        "mu": getattr(args, "mu", None) or "",
        "sigma": getattr(args, "sigma", None) or "id",
        "level": getattr(args, "level", None) or "",
        "tool": f"affweyl/{__version__}",
    }


def _meta_line(args, rd) -> str:
    return "# " + " ".join(f"{k}={v}" for k, v in _meta_obj(args, rd).items())


def _emit(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _rows_to_table(header, rows, meta: str) -> str:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
              for i, h in enumerate(header)]
    lines = [meta]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _rows_to_tsv(header, rows, meta: str) -> str:
    lines = [meta, "\t".join(str(h) for h in header)]
    lines += ["\t".join(str(c) for c in r) for r in rows]
    return "\n".join(lines) + "\n"


def _emit_rows(args, rd, key: str, header, rows):
    """Rows as JSON (one object per row under key), TSV or a table."""
    if args.format == "json":
        payload = {"meta": _meta_obj(args, rd), key: [dict(zip(header, r)) for r in rows]}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    elif args.format == "tsv":
        _emit(_rows_to_tsv(header, rows, _meta_line(args, rd)), args.out)
    else:
        _emit(_rows_to_table(header, rows, _meta_line(args, rd)), args.out)


def _emit_fields(args, rd, key: str, rows):
    """Field/value rows as JSON (one object under key), else as _emit_rows."""
    if args.format == "json":
        payload = {"meta": _meta_obj(args, rd), key: dict(rows)}
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit_rows(args, rd, key, ("field", "value"), rows)


def _fmt_kappa(kappa) -> str:
    return ",".join(str(x) for x in kappa) if kappa else "0"


def cmd_describe(args) -> int:
    rd, sigma = _build_context(args)
    _check_format(args, "describe", ("table", "tsv", "json"))
    pi1 = fundamental_group(rd)
    rows = [
        ("label", rd.type_label),
        ("rank", rd.rank),
        ("semisimple_rank", rd.semisimple_rank),
        ("positive_roots", len(rd.positive_roots)),
        ("cartan", ";".join(",".join(str(x) for x in row) for row in rd.cartan_matrix)),
        ("pi1", pi1.describe()),
        ("sigma_order", sigma.order),
    ]
    _emit_fields(args, rd, "describe", [(k, str(v)) for k, v in rows])
    return 0


def _adm_rows(rd, mu, level):
    return [
        (format_element(rd, w), length(rd, w), _fmt_kappa(kottwitz(rd, w)))
        for w in adm_K(mu, rd, level)
    ]


def _wants_dot(args) -> bool:
    """--poset (or the poset command) or --format dot; a poset is DOT only, so another --format is refused."""
    if args.poset and args.format not in (None, "dot"):
        raise ConfigError(f"a poset is printed as DOT only; --format {args.format} is not available")
    return args.poset or args.format == "dot"


def cmd_adm(args) -> int:
    rd, sigma = _build_context(args)
    level = _parse_level(rd, args.level, sigma)
    mu = _mu(args, rd, "adm")
    if _wants_dot(args):
        return _emit_poset(args, rd, mu, level)
    _emit_rows(args, rd, "elements", ("element", "length", "kappa"), _adm_rows(rd, mu, level))
    return 0


def _emit_dot(args, rd, name: str, labels, edges) -> int:
    """A DOT digraph with one node per label, drawn bottom to top."""
    lines = [_meta_line(args, rd), f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  n{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  n{a} -> n{b};" for a, b in edges]
    lines.append("}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _emit_poset(args, rd, mu, level) -> int:
    poset = kr_poset(mu, rd, level)
    labels = [f"{format_element(rd, w)} (l={r})" for w, r in zip(poset.nodes, poset.ranks)]
    return _emit_dot(args, rd, "kr_poset", labels, poset.edges)


def _newton_rows(rd, mu, sigma):
    """Classes, their table rows and the cover edges of their Newton points."""
    classes = straight_classes(mu, rd, sigma)
    _, edges, basic = _newton_set(mu, rd, sigma)
    rows = []
    for i, cls in enumerate(classes):
        rows.append(
            (
                f"b{i}",
                format_element(rd, cls.representative),
                ",".join(str(x) for x in cls.newton.nu),
                cls.newton.denominator,
                _fmt_kappa(cls.newton.kappa),
                len(cls.members),
                "basic" if i == basic else "",
            )
        )
    return classes, rows, edges


def cmd_newton(args) -> int:
    rd, sigma = _build_context(args)
    mu = _mu(args, rd, "newton")
    dot = _wants_dot(args)
    classes, rows, edges = _newton_rows(rd, mu, sigma)
    if dot:
        return _emit_dot(args, rd, "newton_poset", [row[2] for row in rows], edges)
    header = ("id", "representative", "nu", "denominator", "kappa", "members", "basic")
    _emit_rows(args, rd, "classes", header, rows)
    return 0


def cmd_components_bound(args) -> int:
    rd, sigma = _build_context(args)
    _check_format(args, "components-bound", ("json",))
    mu = _mu(args, rd, "components-bound")
    classes, rows, _ = _newton_rows(rd, mu, sigma)
    column = 6 if args.b == "basic" else 0  # the basic column, else the id column
    target = next((c for c, r in zip(classes, rows) if r[column] == args.b), None)
    if target is None:
        raise ConfigError(f"unknown class id {args.b!r}; see the newton table")
    report = components_bound_report(mu, target.newton, rd, sigma)
    payload = {
        "meta": _meta_obj(args, rd),
        "mu": list(report.mu),
        "b": {
            "nu": [str(x) for x in report.b.nu],
            "denominator": report.b.denominator,
            "kappa": list(report.b.kappa),
        },
        "witnesses": [
            {
                "element": format_element(rd, w.element),
                "levi": {
                    "label": w.levi.type_label,
                    "positive_roots": len(w.levi.positive_roots),
                    "pi1": fundamental_group(w.levi).describe(),
                },
                "lambda_w": list(w.lambda_w),
                "lift_chain": [list(c) for c in w.lift_chain],
                "central_in_levi": w.central_in_levi,
                "pi1_sigma_invariants": w.pi1_sigma.describe() if w.pi1_sigma else None,
                "marker": w.marker,
            }
            for w in report.witnesses
        ],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_stembridge(args) -> int:
    rd, _ = _build_context(args)
    _check_format(args, "stembridge", ("table", "json"))
    if not args.mu or not args.lam:
        raise ConfigError("stembridge needs --mu and --lambda")
    mu = _parse_cochar(args.mu, rd, "--mu")
    lam = _parse_cochar(args.lam, rd, "--lambda")
    chain = stembridge_chain(lam, mu, rd)
    payload = {
        "meta": _meta_obj(args, rd),
        "start": list(chain.start),
        "end": list(chain.end),
        "steps": [list(s) for s in chain.steps],
        "intermediates": [list(v) for v in chain.intermediates],
    }
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = [_meta_line(args, rd)]
        lines.append(f"chain from {args.mu} down to {args.lam}: {len(chain.steps)} steps")
        for s, v in zip(chain.steps, chain.intermediates):
            lines.append(f"  -{list(s)} -> {list(v)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_perm_check(args) -> int:
    if not args.mu:
        raise ConfigError("perm-check needs --n and --mu")
    if args.n < 1:
        raise ConfigError(f"perm-check needs --n >= 1, got {args.n}")
    rd = build_root_datum({"preset": "GL", "n": args.n})
    mu = _parse_cochar(args.mu, rd, "--mu")
    report = adm_eq_perm_check(args.n, mu, rd)
    rows = [
        ("equal", report.equal),
        ("adm_size", report.adm_size),
        ("perm_size", report.perm_size),
        ("only_in_adm", [format_element(rd, w) for w in report.only_in_adm]),
        ("only_in_perm", [format_element(rd, w) for w in report.only_in_perm]),
    ]
    _emit_fields(args, rd, "report", rows)
    return 0 if report.equal else 1


def cmd_oracle_suite(args) -> int:
    results = oracles.run_oracle_suite(args.scope)
    if args.scope and not results:
        raise ConfigError(
            f"unknown scope {args.scope!r}; available: {', '.join(oracles.available_scopes())}"
        )
    lines = []
    ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        ok = ok and res.passed
        lines.append(f"{status} [{res.scope}] {res.name}: {res.detail}")
    lines.append(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} oracles passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affweyl",
        description="Exact affine Weyl group combinatorics for split reductive groups.",
    )
    parser.add_argument("--version", action="version", version=f"affweyl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mu=True, sigma=True, level=False):
        p.add_argument("--group", help="preset group, e.g. GL3, GSp4, SL3, PGL3")
        p.add_argument("--config", help="JSON config file overriding flags")
        if mu:
            p.add_argument("--mu", help="cocharacter coordinates, e.g. 1,0,0")
        if sigma:
            p.add_argument("--sigma", default=None, help="id (default) or flip")
        if level:
            p.add_argument("--level", default=None, help="parahoric generators, e.g. s1,s2")
        p.add_argument("--format", default=None, choices=FORMATS)
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("describe", help="summarize a group datum")
    common(p, mu=False)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("adm", help="enumerate the admissible set")
    common(p, level=True)
    p.add_argument("--poset", action="store_true", help="emit the closure poset as DOT")
    p.set_defaults(fn=cmd_adm)

    p = sub.add_parser("poset", help="closure poset of the admissible set as DOT")
    common(p, level=True)
    p.set_defaults(fn=cmd_adm, poset=True)

    p = sub.add_parser("newton", help="straight classes and Newton points")
    common(p)
    p.add_argument("--poset", action="store_true", help="emit the dominance poset as DOT")
    p.set_defaults(fn=cmd_newton)

    p = sub.add_parser("components-bound", help="component-bound index data as JSON")
    common(p)
    p.add_argument("--b", required=True, help="class id from the newton table, or 'basic'")
    p.set_defaults(fn=cmd_components_bound)

    p = sub.add_parser("stembridge", help="dominance chain between two dominant cocharacters")
    common(p, sigma=False)
    p.add_argument("--lambda", dest="lam", help="target cocharacter coordinates")
    p.set_defaults(fn=cmd_stembridge)

    p = sub.add_parser("perm-check", help="Adm(mu) against the mu-permissible set Perm(mu) for GL(n)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--format", default="table", choices=("table", "tsv", "json"))
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_perm_check)

    p = sub.add_parser("oracle-suite", help="run the derived-value oracle suite")
    p.add_argument("--scope", default=None, help="restrict to one scope")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_oracle_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (ChainPreconditionError, PermError, AffineWeylError, RootDatumError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
