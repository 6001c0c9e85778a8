"""
Command-line front end.

    adlv classify --n 13 [--format table|json|dot]
    adlv verify --suite oracle|closedforms|reduction|figures|all [--n-max N]
    adlv element --n 5 --word 0,1,2 [--omega -2] [--show fields]

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 no failure but some verify check
undecided because its bounded search ran out of budget (printed as
``[budget] <check>: undecided (...)``).  ADLV_BFS_BUDGET overrides the node
budget of the bounded searches.  Without ``--n-max`` the verify suites check
oracle n = 2..8, closedforms n = 2..14, reduction n = 5..8 (after its chain
convention) and figures n = 13, 14.  ``--n-max`` caps every suite but
``figures``; a suite whose first rank lies above it checks none of its ranks.
Every ``classify`` format writes a stratum as its row arrives from
``gu._rows``, with no record.  ``--format json`` fills one fixed template per
stratum class; its bytes are those of ``json.dumps(..., indent=2)``, and the
tests pin them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Collection, Iterable, Optional

from . import gu, reduction, roots
from .gu import StratumClass
from .weyl import from_word

USAGE_ERROR = 2
UNDECIDED = 3  # a verify check ran out of search budget
_WRITE_SLICE = 1 << 20  # characters per stdout write of `adlv classify`

REPORT_FIELDS = ("window", "length", "omega", "supp_sigma", "s_w_sigma",
                 "phi_w_size", "lp_size", "empty", "witness")


def _budget() -> int:
    raw = os.environ.get("ADLV_BFS_BUDGET")
    if raw is None:
        return roots.DEFAULT_BUDGET
    try:
        value = int(raw)
        if value <= 0:
            raise ValueError
    except ValueError:
        print(f"invalid ADLV_BFS_BUDGET: {raw!r}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return value


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

_FIELDS = ("k", "l", "class", "length", "dim", "target", "rank", "base",
           "parahoric", "supp_sigma", "s_w_sigma", "positive_coxeter")
_LABEL = '{\n        "k": %d,\n        "l": %d\n      }'
_NO_FIBRATION = dict(target="null", rank="null", base="null", positive_coxeter="false")
# one stratum of each class as json.dumps(..., indent=2) lays it out, %s where it varies
_JSON_EMPTY, _JSON_DL, _JSON_NOT_DL = ("    {\n%s\n    }" % ",\n".join(
    f'      "{key}": {fixed.get(key, "%s")}' for key in _FIELDS) for fixed in (
        {"class": '"empty"', "dim": "null", "parahoric": "null", **_NO_FIBRATION},
        {"class": '"dl"', **_NO_FIBRATION},
        {"class": '"not_dl"', "target": _LABEL, "base": _LABEL}))
# bound once: an Enum class-attribute read costs a quarter of a classify call
_DL, _NOT_DL, _EMPTY = StratumClass.DL, StratumClass.NOT_DL, StratumClass.EMPTY


def _json_list(ints: Iterable[int]) -> str:
    """The JSON list of increasing ints, as it stands inside a stratum."""
    text = ",\n        ".join(map(str, ints))
    return "[\n        " + text + "\n      ]" if text else "[]"


def classify_json(n: int) -> str:
    """The JSON text of every label's closed-form record, one template per
    stratum class; byte for byte what ``json.dumps(..., indent=2)`` writes."""
    strata = [
        _JSON_EMPTY % (k, l, length, supp, stable) if cls is _EMPTY
        else _JSON_DL % (k, l, length, dim, parahoric, supp, stable) if cls is _DL
        else _JSON_NOT_DL % (k, l, length, dim, *target, rank, *base, parahoric, supp,
                             stable, "true" if pos else "false")
        for k, l, cls, length, supp, stable, dim, target, rank, base, parahoric, _, pos
        in gu._rows(n, sets=_json_list, parahoric=_json_list)]
    # the head and tail ride on the first and last stratum: one join, no other copy
    strata[0] = '{\n  "schema": 1,\n  "n": %d,\n  "strata": [\n' % n + strata[0]
    strata[-1] += "\n  ]\n}"
    return ",\n".join(strata)


def _fmt_label(lab: Optional[tuple[int, int]]) -> str:
    return "-" if lab is None else "(%d,%d)" % lab


def _brace_list(ints: Iterable[int]) -> str:
    return "{" + ",".join(map(str, ints)) + "}"


def classify_table(n: int) -> str:
    header = ["(k,l)", "class", "len", "dim", "target", "rank", "base",
              "parahoric", "pos_cox"]
    rows = [header] + [[
        f"({k},{l})", cls.value, str(length), "-" if dim is None else str(dim),
        _fmt_label(target), "-" if rank is None else str(rank), _fmt_label(base),
        parahoric or "-", "yes" if pos else "no",
    ] for k, l, cls, length, _, _, dim, target, rank, base, parahoric, _, pos
        in gu._rows(n, parahoric=_brace_list)]
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def classify_dot(n: int) -> str:
    """Fibration digraph; one rank row per dimension, arrows to the target."""
    lines = ["digraph strata {", "  node [shape=box];"]
    by_dim: dict[int, list[str]] = {}
    edges = []
    for k, l, _, _, _, _, dim, target, *_ in gu._rows(n, keep=(_DL, _NOT_DL)):
        lines.append(f'  "w_{k}_{l}" [label="w_{{{k},{l}}}"];')
        by_dim.setdefault(dim, []).append(f'"w_{k}_{l}";')
        if target is not None:
            edges.append(f'  "w_{k}_{l}" -> "w_{target[0]}_{target[1]}";')
    for dim in sorted(by_dim):
        lines.append(f"  {{ rank=same; {' '.join(by_dim[dim])} }}")
    lines += edges
    lines.append("}")
    return "\n".join(lines) + "\n"


def _classify_parts(n: int, fmt: str) -> tuple[str, str]:
    """The rendered body of ``adlv classify`` and the end written after it."""
    if fmt == "dot":
        return classify_dot(n), ""
    return (classify_json(n) if fmt == "json" else classify_table(n)), "\n"


def classify_text(n: int, fmt: str) -> str:
    """The exact text ``adlv classify --n n --format fmt`` writes."""
    return "".join(_classify_parts(n, fmt))


def cmd_classify(args: argparse.Namespace) -> int:
    if args.n < 2:
        print(f"n must be at least 2, got {args.n}", file=sys.stderr)
        return USAGE_ERROR
    body, end = _classify_parts(args.n, args.format)
    # neither the end nor the encoding of standard output copies the whole body
    for start in range(0, len(body), _WRITE_SLICE):
        sys.stdout.write(body[start:start + _WRITE_SLICE])
    sys.stdout.write(end)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

CheckResult = tuple[str, Optional[bool], str]  # ok is None: undecided
Check = Callable[[int, int], tuple[bool, str]]  # (n, budget) -> (ok, detail)

WALK_N_MAX = 10  # the ideal walk is factorial in n; compare it up to here


def _check_oracle(n: int, budget: int) -> tuple[bool, str]:
    for rec in gu.stratum_records(n):
        got, want = gu.classify_by_criterion(n, *rec.label), rec.stratum_class
        if got is not want:
            return False, (f"first counterexample {_fmt_label(rec.label)}: "
                           f"closed form {want.value}, criterion {got.value}")
        if n <= WALK_N_MAX and got is not StratumClass.DL:
            walk = reduction.is_empty_basic_v_form(gu.w_kl(n, *rec.label), budget)
            if walk.empty != (got is StratumClass.EMPTY):
                return False, (f"first counterexample {_fmt_label(rec.label)}: closure "
                               f"{got.value}, ideal walk empty={walk.empty}")
    if n <= WALK_N_MAX:
        return True, "closed form = criterion = ideal walk on all labels"
    return True, "closed form = criterion on all labels"


def _check_closedforms(n: int, budget: int) -> tuple[bool, str]:
    records = gu.stratum_records(n)
    for rec in records:
        w = gu.w_kl(n, *rec.label)
        if w.length() != rec.length:
            return False, (f"length of {_fmt_label(rec.label)} is {w.length()}, "
                           f"not {rec.length}")
        if roots.supp_sigma(w) != rec.supp_sigma:
            return False, f"twisted support mismatch at {_fmt_label(rec.label)}"
        if roots.s_w_sigma(w) != rec.s_w_sigma:
            return False, f"stable-subset mismatch at {_fmt_label(rec.label)}"
    dims = [rec.dim for rec in records if rec.dim is not None]
    if max(dims) != n - 2 or dims.count(max(dims)) != n // 2:
        return False, "dimension/component count"
    return True, "lengths, supports, stable subsets, dimensions"


def _check_reduction(n: int, budget: int) -> tuple[bool, str]:
    records = [rec for rec in gu.stratum_records(n)
               if rec.stratum_class is StratumClass.NOT_DL]
    for rec in records:
        w, target = gu.w_kl(n, *rec.label), gu.w_kl(n, *rec.target)
        try:  # a wrong closed form can break find_reduction's preconditions
            cert = reduction.find_reduction(w, target, budget, level=rec.s_w_sigma)
        except ValueError as exc:
            return False, f"no verified certificate for {_fmt_label(rec.label)}: {exc}"
        # a level-legal arrow is an admitted arrow: this certificate is plain too
        if cert is None or not cert.verify():
            return False, f"no verified certificate for {_fmt_label(rec.label)}"
    return True, (f"{len(records)} certificates found and re-verified, "
                  "plain and at the stratum level")


def _check_figures(n: int, budget: int) -> tuple[bool, str]:
    if gu.graph_summary(gu.stratum_graph(n)) == gu.load_golden_summary(n):
        return True, "node and edge sets match the transcription"
    return False, "computed graph differs from the golden transcription"


def _upto(first: int, default_max: int) -> Callable[[Optional[int]], range]:
    return lambda n_max: range(first, (default_max if n_max is None else n_max) + 1)


# suite -> (its ranks under --n-max, None when not given; its check of a rank),
# run in this order by --suite all
_SUITES: dict[str, tuple[Callable[[Optional[int]], Iterable[int]], Check]] = {
    "oracle": (_upto(2, 8), _check_oracle),
    "closedforms": (_upto(2, 14), _check_closedforms),
    "reduction": (_upto(5, 8), _check_reduction),
    "figures": (lambda n_max: (13, 14), _check_figures),
}
SUITES = (*_SUITES, "all")


def _run_suites(suite: str, n_max: Optional[int], budget: int) -> list[CheckResult]:
    """Each suite's ranks in order, up to its first failure; a rank whose
    bounded search runs out of budget is reported undecided.  The reduction
    suite first checks the chain convention its certificates rely on."""
    results: list[CheckResult] = []
    for name in _SUITES if suite == "all" else (suite,):
        if name == "reduction":
            chain = bool(reduction.verify_chain(
                gu.w_kl(5, 1, 5), (3, 0, 1), from_word(5, [1], omega=-2, similitude=-1)))
            results.append(("reduction chain convention", chain,
                            "superscript word s3 s0 s1 at n=5"))
            if not chain:
                continue
        ranks, check = _SUITES[name]
        for n in ranks(n_max):
            try:
                ok, detail = check(n, budget)
            except roots.BudgetExceededError as exc:
                results.append((f"{name} n={n}", None, f"undecided ({exc})"))
                continue
            results.append((f"{name} n={n}", ok, detail))
            if not ok:
                break
    return results


def cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max is not None and args.n_max < 2:
        print(f"--n-max must be at least 2, got {args.n_max}", file=sys.stderr)
        return USAGE_ERROR
    results = _run_suites(args.suite, args.n_max, _budget())
    status = {True: "ok", False: "FAIL", None: "budget"}
    for name, ok, detail in results:
        print(f"[{status[ok]}] {name}: {detail}")
    outcomes = {ok for _, ok, _ in results}
    if False in outcomes:
        return 1
    return UNDECIDED if None in outcomes else 0


# ---------------------------------------------------------------------------
# element
# ---------------------------------------------------------------------------

def _parse_word(raw: str, n: int) -> list[int]:
    if raw.strip() == "":
        return []
    out = []
    for part in raw.split(","):
        try:
            a = int(part)
        except ValueError:
            raise ValueError(f"word entry {part!r} is not an integer")
        if not 0 <= a < n:
            raise ValueError(f"word entry {a} out of range 0..{n - 1}")
        out.append(a)
    return out


def _report(n: int, word: list[int], omega: int, budget: int,
            fields: Collection[str]) -> dict:
    """Compute only the report fields named in ``fields``."""
    w = from_word(n, word, omega=omega, similitude=-1 if omega == -2 else 0)
    getters: dict[str, Callable[[], object]] = {
        "window": lambda: str(w), "length": w.length, "omega": w.omega,
        "supp_sigma": lambda: sorted(roots.supp_sigma(w)),
        "s_w_sigma": lambda: sorted(roots.s_w_sigma(w)),
        "phi_w_size": lambda: len(roots.phi_w(w)),
        # |LP(w)| = |R(w)|, the size of the inversion ideal under Phi_w
        "lp_size": lambda: sum(
            1 for _ in roots._iter_inv_ideal(w.n, roots.phi_w(w), budget)),
    }
    report: dict = {}
    for key in (key for key in getters if key in fields):
        try:
            report[key] = getters[key]()
        except roots.BudgetExceededError:
            report[key] = f"not computed (budget {budget} exceeded)"
    if "empty" not in fields and "witness" not in fields:
        return report
    if w.is_min_coset_rep() and w.omega() == -2:
        verdict = reduction.is_empty_basic(w)
        report["empty"] = verdict.empty
        if verdict.witness is not None:
            report["witness"] = str(verdict.witness)
    else:
        report["empty"] = "not applicable (needs a minimal representative in the base coset)"
    return report


def element_report(n: int, word: list[int], omega: int, budget: int) -> dict:
    return _report(n, word, omega, budget, REPORT_FIELDS)


def cmd_element(args: argparse.Namespace) -> int:
    if args.n < 2:
        print(f"n must be at least 2, got {args.n}", file=sys.stderr)
        return USAGE_ERROR
    try:
        word = _parse_word(args.word, args.n)
        from_word(args.n, word, omega=args.omega)  # window entries in range
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE_ERROR
    fields = REPORT_FIELDS if args.show is None else [f.strip() for f in args.show.split(",")]
    unknown = [f for f in fields if f not in REPORT_FIELDS]
    if unknown:
        print(f"unknown report fields: {', '.join(unknown)}; "
              f"valid fields: {', '.join(REPORT_FIELDS)}", file=sys.stderr)
        return USAGE_ERROR
    report = _report(args.n, word, args.omega, _budget(), fields)
    for key, value in report.items():
        if key in fields:
            print(f"{key}: {value}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adlv",
        description="stratification data of the GU(2,n-2) basic locus")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cls = sub.add_parser("classify", help="stratum table / JSON / DOT graph")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--format", choices=("table", "json", "dot"),
                       default="table")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", choices=SUITES, required=True)
    p_ver.add_argument("--n-max", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_el = sub.add_parser("element", help="inspect a single element")
    p_el.add_argument("--n", type=int, required=True)
    p_el.add_argument("--word", default="",
                      help="comma-separated simple reflection indices")
    p_el.add_argument("--omega", type=int, default=0,
                      help="power of the length-zero shift")
    p_el.add_argument("--show", default=None,
                      help="comma-separated report fields to print")
    p_el.set_defaults(func=cmd_element)
    return parser


# built once: each cmd_* looks its helpers up when it runs, so patching them holds
_PARSER = build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
