"""Machine-first command line: JSON on stdout, logs on stderr.

Exit codes: 0 success or affirmative answer, 1 clean negative answer,
2 usage or input error, 3 precondition failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Optional

from . import catalog as cat
from . import colouring as col
from . import constructions as cons
from . import stable_cut as sc
from .graph import (
    Graph,
    GraphParseError,
    PreconditionError,
    _parse_graph6_text,
    blocks,
    connected_components,
    connected_components_without,
    emit_edge_list,
    emit_graph6,
    is_edge_list_text,
    parse_edge_list,
)
from .rigidity import gsc_decomposition, rank, recognize_0extension_graph, rigidity_report

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


class InputError(Exception):
    """Input or output the command cannot use: an unreadable or non-UTF-8
    input, an `--out` path that cannot be opened, or a vertex out of range."""


def _read_input(args) -> str:
    """The input text, decoded strictly as UTF-8 whatever the locale; a
    stdin without a byte buffer (an `io.StringIO`) is read as text."""
    path = args.file if args.file and args.file != "-" else None
    try:
        if path is None:
            buffer = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path or 'stdin'}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path or 'stdin'} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _load_graph(args) -> Graph:
    text = _read_input(args)
    fmt = getattr(args, "format", "auto")
    if fmt == "graph6" or (fmt == "auto" and not is_edge_list_text(text)):
        return _parse_graph6_text(text)
    g, labels = parse_edge_list(text)
    if labels != [str(i) for i in range(len(labels))]:
        print(f"label map: {dict(enumerate(labels))}", file=sys.stderr)
    return g


def _output(args):
    out = getattr(args, "out", None)
    if not out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc.strerror}") from exc


def _write_listing(args, masks: list[int], m: int) -> None:
    """One JSON line per red-edge mask (`colouring.json_lines`), written in
    one `writelines`; an empty listing is one blank line."""
    with _output(args) as fh:
        fh.writelines(col.json_lines(m, masks) if masks else ["\n"])


def _emit(obj, args) -> None:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    with _output(args) as fh:
        fh.write(text + "\n")


def _stable_cut_payload(g: Graph, result: Optional[sc.StableCutResult], method: Optional[str]) -> dict:
    if result is None:
        return {"cut": None, "method": method}
    return {
        "cut": sorted(result.cut),
        "separates": list(result.separated_pair) if result.separated_pair else None,
        "avoids": result.avoided_vertex,
        "components_after_removal": result.components or len(connected_components_without(g, result.cut)),
        "method": method,
    }


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    answers = sc.Answers(g)
    dec = answers.decomposition
    report = {"n": g.n, "m": g.m, "connected": answers.connected}
    if dec is not None:
        report["blocks"] = 1  # a member has no stable cut, so no cut vertex
    else:
        report["blocks"] = len(blocks(g)) if all(g.adjacency) else None
    rig = answers.report
    report.update(
        rank=rig.rank,
        rigid=rig.is_rigid,
        minimally_rigid=rig.is_minimally_rigid,
        flexible=rig.is_flexible,
        rigid_components=len(rig.rigid_components),
    )
    if dec is not None:
        report["gsc"] = {"member": True, "prisms": dec.prism_count}
    elif g.m == 2 * g.n - 3:
        # a non-member with 2n-3 edges has a stable cut: the empty one when
        # it is disconnected, else by Le and Pfender
        report["gsc"] = {"member": False, "reason": "stable cut"}
    else:
        report["gsc"] = {"member": False, "reason": "edge count"}
    # a 2-tree is exactly a member built from triangles alone
    report["two_tree"] = dec is not None and dec.prism_count == 0
    cut, method = answers.stable_cut
    report["stable_cut"] = None if cut is None else sorted(cut.cut)
    report["stable_cut_method"] = method
    if args.count:
        report["nnac"] = str(col.count_nac(g))
    _emit(report, args)
    return EXIT_OK


def cmd_rank(args) -> int:
    g = _load_graph(args)
    _emit({"rank": rank(g), "max_rank": 2 * g.n - 3}, args)
    return EXIT_OK


def cmd_components(args) -> int:
    g = _load_graph(args)
    _emit({"components": [sorted(c) for c in connected_components(g)]}, args)
    return EXIT_OK


def cmd_nac(args) -> int:
    g = _load_graph(args)
    if args.action == "count":
        count, nodes, ms = col.enumerate_nac_detailed(g)
        _emit(str(count) if args.raw else {"nnac": str(count), "nodes": nodes, "millis": int(ms)}, args)
        return EXIT_OK
    if args.action == "exists":
        found = col.enumerate_nac(g, first_only=True) > 0
        _emit("true" if found else "false", args)
        return EXIT_OK if found else EXIT_NEGATIVE
    if args.action == "list":
        masks: list[int] = []
        col.enumerate_nac_detailed(g, on_found=masks.append)
        _write_listing(args, masks, g.m)
        return EXIT_OK
    # construct
    result = col.construct_nac_minimally_rigid(g)
    if isinstance(result, col.TwoTreeCertificate):
        _emit({"nac": None, "two_tree_peel": list(result.peel_order)}, args)
        return EXIT_NEGATIVE
    _emit(result.to_json(), args)
    return EXIT_OK


def cmd_nap(args) -> int:
    g = _load_graph(args)
    if args.action == "exists":
        found = col.has_nap_colouring(g)
        _emit("true" if found else "false", args)
        return EXIT_OK if found else EXIT_NEGATIVE
    _write_listing(args, col.nap_masks(g), g.m)
    return EXIT_OK


def cmd_stable_cut(args) -> int:
    g = _load_graph(args)
    named = args.separate or ([] if args.avoid is None else [args.avoid])
    for v in named:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range for a graph on {g.n} vertices")
    if named:
        separate = tuple(args.separate) if args.separate else None
        parts = connected_components(g)
        if len(parts) > 1 and not (separate and any(set(separate) <= part for part in parts)):
            # a disconnected graph, with the pair (if any) in two parts: the empty cut
            result, method = sc.exhaustive_stable_cut(g, separate=separate, avoid=args.avoid), "exhaustive"
        elif separate:
            result, method = sc.algorithm1_stable_cut(g, *separate), "algorithm1"
        else:
            result, method = sc.stable_cut_avoiding(g, args.avoid), "algorithm1"
        _emit(_stable_cut_payload(g, result, method), args)
        return EXIT_OK
    if args.exhaustive:
        result = sc.exhaustive_stable_cut(g)
        _emit(_stable_cut_payload(g, result, "exhaustive"), args)
        return EXIT_OK if result else EXIT_NEGATIVE
    answers = sc.Answers(g)
    result, method = answers.stable_cut
    payload = _stable_cut_payload(g, result, method)
    if method == "skipped":
        # nothing was proven either way: a refusal, not a negative answer
        payload["reason"] = answers.refusal
        _emit(payload, args)
        return EXIT_PRECONDITION
    _emit(payload, args)
    return EXIT_OK if result else EXIT_NEGATIVE


def cmd_construct(args) -> int:
    family = args.family
    p = args.params
    try:
        if family == "path":
            g = cons.make_path(int(p[0]))
        elif family == "cycle":
            g = cons.make_cycle(int(p[0]))
        elif family == "complete":
            g = cons.make_complete(int(p[0]))
        elif family == "complete-bipartite":
            g = cons.make_complete_bipartite(int(p[0]), int(p[1]))
        elif family == "gk":
            g, _ = cons.make_gk(int(p[0]))
        elif family == "two-tree":
            g = cons.make_2tree(int(p[0]), int(p[1]))
        elif family == "wheel":
            g = cons.make_wheel(int(p[0]))
        elif family == "gsc":
            script = json.loads(p[0])
            if not isinstance(script, list):
                raise ValueError(f"a gsc script is a JSON list of steps, got {p[0]!r}")
            g = cons.make_gsc(script)
        elif family == "fixture":
            g = cons.fixtures()[p[0]].graph
        else:
            print(f"unknown family {family!r}", file=sys.stderr)
            return EXIT_USAGE
        text = emit_graph6(g) if args.emit == "graph6" else emit_edge_list(g)
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        print(f"bad construct parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(text, args)
    return EXIT_OK


def cmd_catalog(args) -> int:
    """`--out` receives the catalog file; the reports always go to stdout.
    Only `--out` and `--check-conjecture` classify the classes; the key
    list reads the keys alone, and the histogram alone their NAC counts."""
    entries = None
    if args.out or args.check_conjecture:
        entries = cat.enumerate_minimally_rigid(args.n, args.allow_large, args.threads)
    elif not args.histogram:
        keys = cat.minimally_rigid_graph6(args.n, args.allow_large, args.threads)
        _emit({"n": args.n, "classes": keys}, None)
        return EXIT_OK
    if args.out:
        try:
            cat.save_catalog(entries, args.n, args.out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc
        print(f"wrote {len(entries)} entries", file=sys.stderr)
    if args.histogram:
        _emit(cat.histogram_report(args.n, args.allow_large, entries, args.threads), None)
    if args.check_conjecture:
        main_v = cat.check_conjecture_61(entries)
        alt_v = cat.check_conjecture_61(entries, prism_subgraph_reading=True)
        _emit(
            {
                "n": args.n,
                "violations_construction_reading": main_v,
                "violations_subgraph_reading": alt_v,
            },
            None,
        )
        return EXIT_OK if not main_v else EXIT_NEGATIVE
    return EXIT_OK


def _selftest_rows() -> list[tuple[str, object, object]]:
    fx = cons.fixtures()
    prism, k33 = fx["prism"].graph, fx["k33"].graph
    rows: list[tuple[str, object, object]] = []
    rows.append(("prism-nac-count", 1, col.count_nac(prism)))
    rows.append(("k33-nac-count", 15, col.count_nac(k33)))
    rows.append(("prism-rigid", True, rigidity_report(prism).is_rigid))
    rows.append(("k33-rigid", True, rigidity_report(k33).is_rigid))
    rows.append(("path8-count", 2 ** 6 - 1, col.count_nac(cons.make_path(8))))
    rows.append(("cycle8-count", 2 ** 7 - 9, col.count_nac(cons.make_cycle(8))))
    rows.append(("k23-count", 7, col.count_nac(cons.make_complete_bipartite(2, 3))))
    gk2, _ = cons.make_gk(2)
    rows.append(("gk2-count", 3, col.count_nac(gk2)))
    rows.append(("gk2-open-steps", 2, recognize_0extension_graph(gk2)[1]))
    rows.append(("two-triangles-blocks", 1, col.count_nac(_two_triangles())))
    rows.append(("upper-bound-n6", 35, col.nnac_upper_bound(6)))
    rows.append(("prism-gsc-prisms", 1, gsc_decomposition(prism).prism_count))
    entries6 = cat.enumerate_minimally_rigid(6)
    rows.append(("catalog-n6-classes", 13, len(entries6)))
    rows.append(("conjecture-n6-violations", 0, len(cat.check_conjecture_61(entries6))))
    return rows


def _two_triangles() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def cmd_selftest(args) -> int:
    rows = _selftest_rows()
    ok = True
    for name, want, got in rows:
        status = "PASS" if want == got else "FAIL"
        ok &= want == got
        print(f"{status}  {name:32s} expected={want!r} got={got!r}")
    return EXIT_OK if ok else EXIT_NEGATIVE


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # refused below with the same message
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rignac", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument("--file", default="-", help="input path or - for stdin")
        p.add_argument("--format", choices=["auto", "edgelist", "graph6"], default="auto")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("analyze", help="one-object JSON report")
    add_io(p)
    p.add_argument("--count", action="store_true", help="include the exponential colouring count")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("rank", help="sparsity rank")
    add_io(p)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("components", help="connected components")
    add_io(p)
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("nac", help="NAC-colouring operations")
    p.add_argument("action", choices=["count", "list", "exists", "construct"])
    add_io(p)
    p.add_argument("--raw", action="store_true", help="bare decimal count")
    p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; has no effect")
    p.set_defaults(func=cmd_nac)

    p = sub.add_parser("nap", help="NAP-colouring operations")
    p.add_argument("action", choices=["list", "exists"])
    add_io(p)
    p.set_defaults(func=cmd_nap)

    p = sub.add_parser("stable-cut", help="stable cut search")
    add_io(p)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--separate", nargs=2, type=int, metavar=("U", "V"))
    mode.add_argument("--avoid", type=int, default=None, metavar="V")
    mode.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_stable_cut)

    p = sub.add_parser("construct", help="emit a named family graph")
    p.add_argument("family")
    p.add_argument("params", nargs="*")
    p.add_argument("--emit", choices=["edgelist", "graph6"], default="edgelist")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("catalog", help="minimally rigid catalogs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--histogram", action="store_true")
    p.add_argument("--check-conjecture", action="store_true")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--threads", type=_positive_int, default=1, help="worker processes, capped at the CPU count")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("selftest", help="quick pass/fail table of known values")
    p.set_defaults(func=cmd_selftest)
    return top


# parse_args keeps no state between calls, so one parser serves every main call
_parser = functools.cache(build_parser)


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
