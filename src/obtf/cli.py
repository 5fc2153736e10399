"""Command-line front end: census, verify, analyze, posets.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 user error (bad arguments, parse errors, size guards), 3 environment
or cache trouble.  Human tables go to stdout; --format json/csv switches
the whole stream to the machine form, never a mix.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Optional

from . import census, cgraph, litposet, verify
from .boolfn import ParseError
from .census import CacheError, CensusCache, CensusRecord
from .litposet import ResourceGuardError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USER = 2
EXIT_ENV = 3

DEFAULT_CACHE = "obtf-cache.jsonl"

_CENSUS_CAPS = {"G": 5, "H": 5, "Pn": 5, "F": 6, "B": 7}
_F_BIG_CAP = 7


class UserError(Exception):
    pass


def _parse_range(text: str) -> list[int]:
    """Accepts '3' or '2..4'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UserError(f"bad range {text!r}; expected N or LO..HI") from None
    if lo > hi:
        raise UserError(f"empty range {text!r}")
    if lo < 0:
        raise UserError("sizes must be >= 0")
    return list(range(lo, hi + 1))


def _canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# census


def _emit_records(records: list[CensusRecord], fmt: str) -> str:
    records = sorted(records, key=lambda r: (r.quantity, r.n, r.convention or ""))
    if fmt == "json":
        return _canonical_json([r.to_json_dict() for r in records])
    header = ["quantity", "n", "convention", "value", "method", "wall_time", "checksum"]
    rows = [[r.quantity, r.n, r.convention or "-", r.value, r.method,
             f"{r.wall_time:.6f}", r.checksum] for r in records]
    if fmt == "csv":
        return _csv_text(header, rows)
    widths = [max(len(str(x)) for x in [h] + [row[i] for row in rows])
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _census_cap(quantity: str, big: bool) -> int:
    if quantity == "F" and big:
        return _F_BIG_CAP
    return _CENSUS_CAPS[quantity]


def cmd_census(args) -> int:
    quantity = args.quantity
    ns = _parse_range(args.n)
    cap = _census_cap(quantity, args.big)
    over = [n for n in ns if n > cap]
    if over:
        hint = " (use --big for F up to 7)" if quantity == "F" and not args.big else ""
        raise UserError(f"{quantity}(n={over[0]}) exceeds the census cap {cap}{hint}")
    if quantity in ("G", "H"):
        conventions = [args.convention] if args.convention else ["t0", "t1"]
    else:
        conventions = [None]
    cache = CensusCache(args.cache)
    known = cache.load()
    records = []
    for n in ns:
        for conv in conventions:
            method = census.default_method(quantity, n)
            key = (quantity, n, conv, method)
            rec = known.get(key)
            if rec is None:
                rec = _compute_record(quantity, n, conv, method, args.workers)
                cache.append(rec)
                known[key] = rec
            records.append(rec)
    sys.stdout.write(_emit_records(records, args.format))
    return EXIT_OK


def _compute_record(quantity: str, n: int, conv: Optional[str],
                    method: str, workers: int) -> CensusRecord:
    if quantity == "G":
        return census.count_functions(n, conv == "t0", method, workers)
    if quantity == "H":
        return census.count_elementary(n, conv == "t0", method, workers)
    if quantity == "Pn":
        return census.count_pn(n, method, workers)
    if quantity == "F":
        return census.count_obtf(n, method, workers)
    if quantity == "B":
        return census.count_bb(n, method, workers)
    raise UserError(f"unknown quantity {quantity!r}")


# ---------------------------------------------------------------------------
# verify


_CACHE_RECHECK_CAPS = {"G": 4, "H": 4, "Pn": 4, "F": 6, "B": 7}


def _cache_consistency(path: str, workers: int) -> list[census.CheckResult]:
    cache = CensusCache(path)
    if not cache.path.exists():
        return []
    out = []
    for rec in cache.load().values():
        cap = _CACHE_RECHECK_CAPS.get(rec.quantity, 0)
        if rec.n > cap:
            continue
        try:
            fresh = _compute_record(rec.quantity, rec.n, rec.convention,
                                    rec.method, workers)
        except (ResourceGuardError, ValueError):
            continue
        ok = fresh.value == rec.value and fresh.checksum == rec.checksum
        out.append(census.CheckResult(
            "cache-consistency",
            f"{rec.quantity} n={rec.n} {rec.convention or '-'} {rec.method}",
            "PASS" if ok else "FAIL",
            f"cached={rec.value} recomputed={fresh.value}"))
    return out


def _emit_checks(checks: list[census.CheckResult], fmt: str) -> str:
    if fmt == "json":
        payload = [{"name": c.name, "scope": c.scope, "status": c.status,
                    "detail": c.detail, "witness": c.witness} for c in checks]
        return _canonical_json(payload)
    if fmt == "csv":
        rows = [[c.name, c.scope, c.status, c.detail, c.witness or ""] for c in checks]
        return _csv_text(["name", "scope", "status", "detail", "witness"], rows)
    lines = []
    for c in checks:
        tag = {"PASS": "[PASS]", "FAIL": "[FAIL]", "INFO": "[info]"}[c.status]
        lines.append(f"{tag} {c.name} {c.scope}: {c.detail}")
        if c.witness:
            for wline in c.witness.rstrip("\n").splitlines():
                lines.append(f"         | {wline}")
    failed = sum(1 for c in checks if c.failed)
    passed = sum(1 for c in checks if c.status == "PASS")
    lines.append(f"{passed} passed, {failed} failed, "
                 f"{len(checks) - passed - failed} informational")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    ns = _parse_range(args.range)
    if any(n >= 5 for n in ns) and not args.big:
        raise UserError("verification at n >= 5 requires --big")
    if any(n > 5 for n in ns):
        raise UserError("verification checks are capped at n <= 5")
    checks = census.verify_identities(ns, workers=args.workers)
    checks += verify.run_suites(ns, seed=args.seed, big=args.big)
    if args.cache:
        checks += _cache_consistency(args.cache, args.workers)
    sys.stdout.write(_emit_checks(checks, args.format))
    return EXIT_VERIFY if any(c.failed for c in checks) else EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analyze(g: cgraph.ColoredGraph) -> dict:
    info: dict = {"n": g.n, "edges": g.edge_count(), "skipped": []}
    info["obtf"] = cgraph.is_obtf(g)
    bp = cgraph.find_blue_bipartition(g)
    info["blue_bipartition"] = None if bp is None else {
        "U": sorted(v for v in range(1, g.n + 1) if bp.side(v) == "U"),
        "W": sorted(bp.w_side),
    }
    if g.n <= cgraph.KAPPA_GUARD:
        kv, kw = cgraph.kappa(g)
        info["kappa"] = {"value": kv, "witness": list(kw)}
    else:
        info["skipped"].append("kappa")
    if g.edge_count() <= cgraph.EDGE_SWEEP_GUARD:
        gv, gw = cgraph.gamma(g)
        info["gamma"] = {"value": gv, "witness": [list(e) for e in gw]}
    else:
        info["skipped"].append("gamma")
    info["eta"] = cgraph.eta(g)
    info["triangle_connected"] = cgraph.is_triangle_connected(g)
    if g.edge_count() <= cgraph.EDGE_SWEEP_GUARD:
        posets = cgraph.posets_of_graph(g)
        info["poset_count"] = len(posets)
        info["posets"] = [litposet.format_poset(p) for p in posets]
    else:
        info["skipped"].append("posets")
    return info


def _emit_analysis(info: dict, fmt: str) -> str:
    if fmt == "json":
        return _canonical_json(info)
    if fmt == "csv":
        header = ["n", "edges", "obtf", "blue_bipartite", "kappa", "gamma",
                  "eta", "triangle_connected", "poset_count"]
        row = [info["n"], info["edges"], info["obtf"],
               info["blue_bipartition"] is not None,
               info.get("kappa", {}).get("value", ""),
               info.get("gamma", {}).get("value", ""),
               info["eta"], info["triangle_connected"],
               info.get("poset_count", "")]
        return _csv_text(header, [row])
    lines = [f"n: {info['n']}", f"edges: {info['edges']}",
             f"odd-blue-triangle-free: {str(info['obtf']).lower()}"]
    bp = info["blue_bipartition"]
    if bp is None:
        lines.append("blue-bipartition: none")
    else:
        u = ",".join(map(str, bp["U"])) or "-"
        w = ",".join(map(str, bp["W"])) or "-"
        lines.append(f"blue-bipartition: U={{{u}}} W={{{w}}}")
    if "kappa" in info:
        kw = ",".join(map(str, info["kappa"]["witness"])) or "-"
        lines.append(f"kappa: {info['kappa']['value']}  witness: {{{kw}}}")
    if "gamma" in info:
        gw = " ".join(f"{u}-{v}" for u, v in info["gamma"]["witness"]) or "-"
        lines.append(f"gamma: {info['gamma']['value']}  witness: {gw}")
    lines.append(f"triangle-components: {info['eta']}")
    lines.append(f"triangle-connected: {str(info['triangle_connected']).lower()}")
    if "poset_count" in info:
        lines.append(f"posets: {info['poset_count']}")
        for i, block in enumerate(info["posets"], start=1):
            lines.append(f"poset {i}:")
            lines.extend("  " + ln for ln in block.rstrip("\n").splitlines())
    if info["skipped"]:
        lines.append("skipped (size guards): " + ", ".join(info["skipped"]))
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    try:
        text = open(args.path).read()
    except OSError as exc:
        raise UserError(f"cannot read {args.path}: {exc}") from exc
    g = cgraph.parse_colored_graph(text)
    sys.stdout.write(_emit_analysis(_analyze(g), args.format))
    return EXIT_OK


# ---------------------------------------------------------------------------
# posets


def cmd_posets(args) -> int:
    modes = [args.n is not None, args.cover_multiplicity is not None,
             args.formula is not None]
    if sum(modes) != 1:
        raise UserError("give exactly one of --n, --cover-multiplicity, --formula")
    if args.n is not None and args.n < 0:
        raise UserError("--n must be >= 0")
    if args.cover_multiplicity is not None and args.cover_multiplicity < 1:
        raise UserError("--cover-multiplicity must be >= 1")
    if args.formula is not None:
        try:
            text = open(args.formula).read()
        except OSError as exc:
            raise UserError(f"cannot read {args.formula}: {exc}") from exc
        from .boolfn import parse_formula
        try:
            p = litposet.implication_poset(parse_formula(text))
        except ValueError as exc:
            raise UserError(str(exc)) from exc
        if args.format == "json":
            block = litposet.format_poset(p)
            sys.stdout.write(_canonical_json(
                {"n": p.n, "relations": block.rstrip("\n").splitlines()[1:]}))
        else:
            sys.stdout.write(litposet.format_poset(p))
        return EXIT_OK
    if args.n is not None:
        n = args.n
        blocks = [litposet.format_poset(p) for p in litposet.enumerate_pn(n)]
        if args.format == "json":
            payload = {"n": n, "count": len(blocks),
                       "posets": [b.rstrip("\n").splitlines()[1:] for b in blocks]}
            sys.stdout.write(_canonical_json(payload))
        elif args.format == "csv":
            rows = []
            for i, b in enumerate(blocks, start=1):
                for line in b.rstrip("\n").splitlines()[1:]:
                    a, bb = line.split()
                    rows.append([i, a, bb])
            sys.stdout.write(_csv_text(["poset", "below", "above"], rows))
        else:
            out = [f"count: {len(blocks)}"]
            for i, b in enumerate(blocks, start=1):
                out.append(f"poset {i}:")
                out.extend("  " + ln for ln in b.rstrip("\n").splitlines())
            sys.stdout.write("\n".join(out) + "\n")
        return EXIT_OK
    m = args.cover_multiplicity
    mult, witness = census.posets_per_cover_graph(m)
    edges = sorted(witness)
    if args.format == "json":
        sys.stdout.write(_canonical_json(
            {"points": m, "max_multiplicity": mult,
             "witness_cover_graph": [list(e) for e in edges]}))
    elif args.format == "csv":
        rows = [[m, mult, u, v] for u, v in edges] or [[m, mult, "", ""]]
        sys.stdout.write(_csv_text(["points", "max_multiplicity", "u", "v"], rows))
    else:
        lines = [f"points: {m}", f"max posets per cover graph: {mult}",
                 "witness cover graph:"]
        lines += [f"  {u} {v}" for u, v in edges] or ["  (empty)"]
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obtf",
        description="Exact censuses and verification for 2-SAT functions, "
                    "literal posets, and red/blue colored graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_workers=True):
        p.add_argument("--format", choices=("table", "json", "csv"), default="table")
        if with_workers:
            p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("census", help="compute census quantities into the cache")
    p.add_argument("--quantity", required=True, choices=census.QUANTITIES)
    p.add_argument("--n", "--range", dest="n", required=True,
                   help="size or range, e.g. 3 or 2..4")
    p.add_argument("--convention", choices=("t0", "t1"),
                   help="for G/H; default reports both")
    p.add_argument("--cache", default=os.environ.get("OBTF_CACHE", DEFAULT_CACHE))
    p.add_argument("--big", action="store_true", help="allow F at n=7")
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run every identity and property check")
    p.add_argument("--range", default="1..3", help="sizes to check, default 1..3")
    p.add_argument("--big", action="store_true", help="unlock the n=5 sweeps")
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    p.add_argument("--cache", default=os.environ.get("OBTF_CACHE"),
                   help="also re-verify cached census values")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="analyze a colored-graph file")
    p.add_argument("path")
    common(p, with_workers=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("posets", help="enumerate literal posets, bound posets "
                                      "per cover graph, or order a formula")
    p.add_argument("--n", type=int, help="enumerate the family for this size")
    p.add_argument("--cover-multiplicity", type=int, metavar="M",
                   help="max posets sharing one cover graph on M points")
    p.add_argument("--formula", metavar="PATH",
                   help="implication poset of a formula file (elementary only)")
    common(p, with_workers=False)
    p.set_defaults(func=cmd_posets)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_USER
    try:
        return args.func(args)
    except (UserError, ParseError, ResourceGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except CacheError as exc:
        print(f"cache error: {exc}", file=sys.stderr)
        return EXIT_ENV


if __name__ == "__main__":
    raise SystemExit(main())
