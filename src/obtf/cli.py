"""Command-line front end: census, verify, analyze, posets.

Exit codes are a stable contract: 0 success, 1 verification failure,
2 user error (bad arguments, parse errors, size guards), 3 environment
or cache trouble.  Human tables go to stdout; --format json/csv switches
the whole stream to the machine form, never a mix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, Iterable, Iterator

from . import litposet
from .boolfn import QUANTITIES, CacheError, ParseError
from .litposet import ResourceGuardError

# cgraph, census and verify load inside the commands that run them, so
# each command starts without the others' modules; these imports serve
# annotations only
if TYPE_CHECKING:
    from . import cgraph, verify
    from .census import CensusRecord

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USER = 2
EXIT_ENV = 3

DEFAULT_CACHE = "obtf-cache.jsonl"


class UserError(Exception):
    pass


def _parse_range(text: str) -> range:
    """Accepts '3' or '2..4'; a range, so a huge one costs nothing until
    the caller checks its ends."""
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
    return range(lo, hi + 1)


def _read_input(path: str) -> str:
    """A UTF-8 input file's text; unreadable or undecodable is a user error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UserError(f"cannot read {path}: {exc}") from exc


def _write_json(payload) -> None:
    """Every command's JSON: sorted keys, two-space indent.  The text is
    built in memory and written in one piece; json.dump's many small
    writes would hold less but take longer."""
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(header: list[str], rows: Iterable[list]) -> None:
    """Every command's CSV: the header, then each row as it comes.  csv
    loads here, so no JSON or table command pays for it."""
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _relations(block: str) -> list[str]:
    """The relation lines of a formatted poset, without its `n` line."""
    return block.rstrip("\n").splitlines()[1:]


def _numbered_posets(blocks: Iterable[str]) -> Iterator[str]:
    """Each formatted poset as a `poset i:` line and its lines indented,
    one text per poset, so a listing is written as it is formatted."""
    for i, block in enumerate(blocks, start=1):
        yield f"poset {i}:\n" + "".join(f"  {ln}\n" for ln in block.rstrip("\n").splitlines())


# ---------------------------------------------------------------------------
# census


def _write_records(records: list[CensusRecord], fmt: str) -> None:
    records = sorted(records, key=lambda r: (r.quantity, r.n, r.convention or ""))
    if fmt == "json":
        _write_json([r.to_json_dict() for r in records])
        return
    header = ["quantity", "n", "convention", "value", "method", "wall_time", "checksum"]
    rows = [[r.quantity, r.n, r.convention or "-", r.value, r.method,
             f"{r.wall_time:.6f}", r.checksum] for r in records]
    if fmt == "csv":
        _write_csv(header, rows)
        return
    widths = [max(len(str(x)) for x in [h] + [row[i] for row in rows])
              for i, h in enumerate(header)]
    sys.stdout.writelines("  ".join(str(x).ljust(w) for x, w in zip(row, widths)) + "\n"
                          for row in [header] + rows)


def cmd_census(args) -> int:
    from . import census   # census engines load only for the commands that count
    quantity = args.quantity
    ns = _parse_range(args.n)
    cap = census.max_n(quantity)
    if ns[-1] > cap:
        raise UserError(f"{quantity}(n={max(ns[0], cap + 1)}) exceeds the census cap {cap}")
    conventions = census.conventions(quantity)
    if args.convention:
        if args.convention not in conventions:
            raise UserError(f"convention {args.convention!r} does not apply to {quantity}")
        conventions = (args.convention,)
    cache = census.CensusCache(args.cache)
    known = cache.load()
    records = []
    for n in ns:
        for conv in conventions:
            method = census.default_method(quantity, n)
            key = (quantity, n, conv, method)
            rec = known.get(key)
            if rec is None:
                rec = census.count(quantity, n, conv, method)
                cache.append(rec)
                known[key] = rec
            records.append(rec)
    _write_records(records, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cache_consistency(path: str) -> list[verify.CheckResult]:
    """Recompute every cached record that its engine admits; each record
    left out gets an INFO line with the engine's refusal."""
    from . import census, verify   # only verify --cache rechecks census values
    cache = census.CensusCache(path)
    if not cache.path.exists():
        return []
    out = []
    for rec in cache.load().values():
        scope = f"{rec.quantity} n={rec.n} {rec.convention or '-'} {rec.method}"
        try:
            fresh = census.count(rec.quantity, rec.n, rec.convention, rec.method)
        except (ResourceGuardError, ValueError) as exc:
            out.append(verify.CheckResult("cache-consistency", scope, "INFO",
                                          f"not rechecked: {exc}"))
            continue
        ok = fresh.value == rec.value and fresh.checksum == rec.checksum
        out.append(verify.CheckResult(
            "cache-consistency", scope, "PASS" if ok else "FAIL",
            f"cached={rec.value} recomputed={fresh.value}"))
    return out


def _write_checks(checks: list[verify.CheckResult], fmt: str) -> None:
    if fmt == "json":
        _write_json([{"name": c.name, "scope": c.scope, "status": c.status,
                      "detail": c.detail, "witness": c.witness} for c in checks])
        return
    if fmt == "csv":
        _write_csv(["name", "scope", "status", "detail", "witness"],
                   [[c.name, c.scope, c.status, c.detail, c.witness or ""] for c in checks])
        return
    for c in checks:
        tag = {"PASS": "[PASS]", "FAIL": "[FAIL]", "INFO": "[info]"}[c.status]
        sys.stdout.write(f"{tag} {c.name} {c.scope}: {c.detail}\n")
        if c.witness:
            sys.stdout.writelines(f"         | {wline}\n"
                                  for wline in c.witness.rstrip("\n").splitlines())
    failed = sum(1 for c in checks if c.failed)
    passed = sum(1 for c in checks if c.status == "PASS")
    sys.stdout.write(f"{passed} passed, {failed} failed, "
                     f"{len(checks) - passed - failed} informational\n")


def cmd_verify(args) -> int:
    from . import verify   # the check suites load only for this command
    ns = _parse_range(args.range)
    plain, big = verify.RUN_LIMITS
    if ns[-1] > plain and not args.big:
        raise UserError(f"verification at n >= {plain + 1} requires --big")
    if ns[-1] > big:
        raise UserError(f"verification checks are capped at n <= {big}")
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    checks = verify.run_suites(ns, seed=seed, big=args.big)
    if args.cache:
        checks += _cache_consistency(args.cache)
    _write_checks(checks, args.format)
    return EXIT_VERIFY if any(c.failed for c in checks) else EXIT_OK


# ---------------------------------------------------------------------------
# analyze


def _analyze(g: cgraph.ColoredGraph) -> tuple[dict, list[tuple[int, ...]]]:
    """The analysis fields, and the posets of g apart from them, so that
    the table can list them as it formats them."""
    from . import cgraph
    info: dict = {"n": g.n, "edges": g.edge_count(), "skipped": []}
    info["obtf"] = cgraph.is_obtf(g)
    w = cgraph.find_blue_bipartition(g)
    info["blue_bipartition"] = None if w is None else {
        "U": sorted(set(range(1, g.n + 1)) - w),
        "W": sorted(w),
    }
    # kappa, gamma and the poset listing enforce their own size guards;
    # past one, the field is left out and named in skipped
    try:
        kv, kw = cgraph.kappa(g)
        info["kappa"] = {"value": kv, "witness": list(kw)}
    except ResourceGuardError:
        info["skipped"].append("kappa")
    try:
        gv, gw = cgraph.gamma(g)
        info["gamma"] = {"value": gv, "witness": [list(e) for e in gw]}
    except ResourceGuardError:
        info["skipped"].append("gamma")
    info["eta"] = cgraph.eta(g)
    info["triangle_connected"] = info["eta"] <= 1
    posets = []
    try:
        # an odd-blue triangle carries no poset, past the edge guard too
        posets = cgraph.posets_of_graph(g) if info["obtf"] else []
        info["poset_count"] = len(posets)
    except ResourceGuardError:
        info["skipped"].append("posets")
    return info, posets


def _write_analysis(info: dict, posets: list[tuple[int, ...]], fmt: str) -> None:
    """The table writes each poset as it formats it; json formats them
    all into the payload first, to print it in one piece."""
    if fmt == "json":
        if "poset_count" in info:
            info["posets"] = [litposet.format_poset(p) for p in posets]
        _write_json(info)
        return
    if fmt == "csv":
        header = ["n", "edges", "obtf", "blue_bipartite", "kappa", "gamma",
                  "eta", "triangle_connected", "poset_count"]
        row = [info["n"], info["edges"], info["obtf"],
               info["blue_bipartition"] is not None,
               info.get("kappa", {}).get("value", ""),
               info.get("gamma", {}).get("value", ""),
               info["eta"], info["triangle_connected"],
               info.get("poset_count", "")]
        _write_csv(header, [row])
        return
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
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.writelines(_numbered_posets(map(litposet.format_poset, posets)))
    if info["skipped"]:
        sys.stdout.write("skipped (size guards): " + ", ".join(info["skipped"]) + "\n")


def cmd_analyze(args) -> int:
    from . import cgraph
    g = cgraph.parse_colored_graph(_read_input(args.path))
    _write_analysis(*_analyze(g), args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# posets


def _write_posets_csv(blocks: Iterable[str]) -> None:
    """One poset,below,above row per relation of each formatted poset,
    written as each poset comes."""
    def rows():
        for i, b in enumerate(blocks, start=1):
            # the antichain has no relations and still gets a row
            yield from [[i, *line.split()] for line in _relations(b)] or [[i, "", ""]]
    _write_csv(["poset", "below", "above"], rows())


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
        text = _read_input(args.formula)
        from .boolfn import parse_formula
        n, clauses = parse_formula(text)
        try:
            block = litposet.format_poset(litposet.implication_poset(n, clauses))
        except ValueError as exc:
            raise UserError(str(exc)) from exc
        if args.format == "json":
            _write_json({"n": n, "relations": _relations(block)})
        elif args.format == "csv":
            _write_posets_csv([block])
        else:
            sys.stdout.write(block)
        return EXIT_OK
    if args.n is not None:
        n = args.n
        from . import cgraph   # the family is enumerated graph by graph
        if args.format == "json":    # one payload, built in memory
            relations = [_relations(litposet.format_poset(p)) for p in cgraph.enumerate_pn(n)]
            _write_json({"n": n, "count": len(relations), "posets": relations})
            return EXIT_OK
        # listed as closure rows before anything is written: the count
        # comes first, and a guard refusal must leave stdout empty
        posets = list(cgraph.enumerate_pn(n))
        blocks = map(litposet.format_poset, posets)
        if args.format == "csv":
            _write_posets_csv(blocks)
        else:
            sys.stdout.write(f"count: {len(posets)}\n")
            sys.stdout.writelines(_numbered_posets(blocks))
        return EXIT_OK
    m = args.cover_multiplicity
    from . import census   # the cover-multiplicity question is a census search
    mult, witness = census.posets_per_cover_graph(m)
    edges = sorted(witness)
    if args.format == "json":
        _write_json({"points": m, "max_multiplicity": mult,
                     "witness_cover_graph": [list(e) for e in edges]})
    elif args.format == "csv":
        _write_csv(["points", "max_multiplicity", "u", "v"],
                   [[m, mult, u, v] for u, v in edges] or [[m, mult, "", ""]])
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
            p.add_argument("--workers", type=int, default=1,
                           help="no effect: every engine runs in one process")

    p = sub.add_parser("census", help="compute census quantities into the cache")
    p.add_argument("--quantity", required=True, choices=QUANTITIES)
    p.add_argument("--n", "--range", dest="n", required=True,
                   help="size or range, e.g. 3 or 2..4")
    p.add_argument("--convention", choices=("t0", "t1"),
                   help="for G/H; default reports both")
    p.add_argument("--cache", default=os.environ.get("OBTF_CACHE", DEFAULT_CACHE))
    common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run every identity and property check")
    p.add_argument("--range", default="1..3", help="sizes to check, default 1..3")
    p.add_argument("--big", action="store_true", help="unlock the sweeps at the largest size")
    p.add_argument("--seed", type=int)   # None: cmd_verify uses verify.DEFAULT_SEED
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
