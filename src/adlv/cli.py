"""
Command-line front end.

    adlv classify --n 13 [--format table|json|dot]
    adlv verify --suite oracle|closedforms|reduction|figures|all [--n-max N]
    adlv element --n 5 --word 0,1,2 [--omega -2] [--show fields]

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 no failure but some verify check
undecided because its bounded search ran out of budget (printed as
``[budget] <check>: undecided (...)``).  ADLV_BFS_BUDGET overrides the node
budget of the bounded searches.  ``--n-max`` caps the rank of every verify
suite but ``figures``, which always checks the figures at n = 13 and 14.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Optional

from . import gu, reduction, roots
from .gu import StratumClass, StratumLabel
from .weyl import from_word

USAGE_ERROR = 2
UNDECIDED = 3  # a verify check ran out of search budget

SUITES = ("oracle", "closedforms", "reduction", "figures", "all")
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

def _label_json(lab: Optional[StratumLabel]) -> Optional[dict]:
    return None if lab is None else {"k": lab.k, "l": lab.l}


def classify_json(n: int) -> dict:
    """One template for every label, read off its closed-form record."""
    strata = [{
        "k": rec.label.k, "l": rec.label.l, "class": rec.stratum_class.value,
        "length": rec.length, "dim": rec.dim,
        "target": _label_json(rec.target), "rank": rec.rank,
        "base": _label_json(rec.base),
        "parahoric": None if rec.parahoric is None else sorted(rec.parahoric),
        "supp_sigma": sorted(rec.supp_sigma), "s_w_sigma": sorted(rec.s_w_sigma),
        "positive_coxeter": rec.positive_coxeter,
    } for rec in gu.stratum_records(n)]
    return {"schema": 1, "n": n, "strata": strata}


def _fmt_set(s: Optional[Iterable[int]]) -> str:
    return "-" if s is None else "{" + ",".join(map(str, sorted(s))) + "}"


def _fmt_label(lab: Optional[dict]) -> str:
    return "-" if lab is None else f"({lab['k']},{lab['l']})"


def classify_table(n: int) -> str:
    data = classify_json(n)
    header = ["(k,l)", "class", "len", "dim", "target", "rank", "base",
              "parahoric", "pos_cox"]
    rows = [header]
    for s in data["strata"]:
        rows.append([
            f"({s['k']},{s['l']})",
            s["class"],
            str(s["length"]),
            "-" if s["dim"] is None else str(s["dim"]),
            _fmt_label(s["target"]),
            "-" if s["rank"] is None else str(s["rank"]),
            _fmt_label(s["base"]),
            _fmt_set(s["parahoric"]),
            "yes" if s["positive_coxeter"] else "no",
        ])
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines)


def classify_dot(n: int) -> str:
    """Fibration digraph; one rank row per dimension, arrows to the target."""
    g = gu.stratum_graph(n)
    lines = ["digraph strata {", "  node [shape=box];"]
    for rec in sorted(g.records, key=lambda r: r.label):
        k, l = rec.label
        lines.append(f'  "w_{k}_{l}" [label="w_{{{k},{l}}}"];')
    by_dim: dict[int, list[StratumLabel]] = {}
    for rec in g.records:
        by_dim.setdefault(rec.dim, []).append(rec.label)
    for dim in sorted(by_dim):
        ids = " ".join(f'"w_{k}_{l}";' for k, l in sorted(by_dim[dim]))
        lines.append(f"  {{ rank=same; {ids} }}")
    for (k, l), (k2, l2) in sorted(g.edges):
        lines.append(f'  "w_{k}_{l}" -> "w_{k2}_{l2}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    n = args.n
    if n < 2:
        print(f"n must be at least 2, got {n}", file=sys.stderr)
        return USAGE_ERROR
    if args.format == "json":
        print(json.dumps(classify_json(n), indent=2))
    elif args.format == "dot":
        sys.stdout.write(classify_dot(n))
    else:
        print(classify_table(n))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

CheckResult = tuple[str, Optional[bool], str]  # ok is None: undecided


def _per_rank(suite: str, ranks: Iterable[int],
              check: Callable[[int], tuple[bool, str]]) -> list[CheckResult]:
    """Run ``check`` rank by rank up to the first failure; a rank whose
    bounded search runs out of budget is reported undecided."""
    out: list[CheckResult] = []
    for n in ranks:
        try:
            ok, detail = check(n)
        except roots.BudgetExceededError as exc:
            out.append((f"{suite} n={n}", None, f"undecided ({exc})"))
            continue
        out.append((f"{suite} n={n}", ok, detail))
        if not ok:
            break
    return out


WALK_N_MAX = 10  # the ideal walk is factorial in n; compare it up to here


def _suite_oracle(n_max: int, budget: int) -> list[CheckResult]:
    def check(n: int) -> tuple[bool, str]:
        for k, l in sorted(gu.s_admissible(n)):
            got = gu.classify_by_criterion(n, k, l)
            want = gu.classify(n, k, l)
            if got is not want:
                return False, (f"first counterexample ({k},{l}): closed form "
                               f"{want.value}, criterion {got.value}")
            if n <= WALK_N_MAX and got is not StratumClass.DL:
                walk = reduction.is_empty_basic_walk(gu.w_kl(n, k, l), budget)
                if walk.empty != (got is StratumClass.EMPTY):
                    return False, (f"first counterexample ({k},{l}): closure "
                                   f"{got.value}, ideal walk empty={walk.empty}")
        if n <= WALK_N_MAX:
            return True, "closed form = criterion = ideal walk on all labels"
        return True, "closed form = criterion on all labels"
    return _per_rank("oracle", range(2, n_max + 1), check)


def _suite_closedforms(n_max: int, budget: int) -> list[CheckResult]:
    def check(n: int) -> tuple[bool, str]:
        for k, l in sorted(gu.s_admissible(n)):
            w = gu.w_kl(n, k, l)
            if w.length() != k + l - 3:
                return False, f"length of ({k},{l}) is {w.length()}, not {k + l - 3}"
            if roots.supp_sigma(w) != gu.supp_sigma_closed(n, k, l):
                return False, f"twisted support mismatch at ({k},{l})"
            if roots.s_w_sigma(w) != gu.s_closed(n, k, l):
                return False, f"stable-subset mismatch at ({k},{l})"
        if gu.dim_basic_locus(n) != n - 2 or gu.irr_orbit_count(n) != n // 2:
            return False, "dimension/component count"
        return True, "lengths, supports, stable subsets, dimensions"
    return _per_rank("closedforms", range(2, n_max + 1), check)


def _suite_reduction(n_max: int, budget: int) -> list[CheckResult]:
    chain = reduction.verify_chain(
        gu.w_kl(5, 1, 5), (3, 0, 1),
        from_word(5, [1], omega=-2, similitude=-1))
    out: list[CheckResult] = [("reduction chain convention", bool(chain),
                               "superscript word s3 s0 s1 at n=5")]
    if not chain:
        return out

    def check(n: int) -> tuple[bool, str]:
        labels = [lab for lab in sorted(gu.s_admissible(n))
                  if gu.classify(n, *lab) is StratumClass.NOT_DL]
        for k, l in labels:
            w, target = gu.w_kl(n, k, l), gu.w_kl(n, *gu.w_prime(n, k, l))
            cert = reduction.find_reduction(w, target, budget)
            if cert is None or not cert.verify():
                return False, f"no verified certificate for ({k},{l})"
            leveled = reduction.find_reduction(w, target, budget,
                                               level=gu.s_closed(n, k, l))
            if leveled is None or not leveled.verify():
                return False, f"no level-certified reduction for ({k},{l})"
        return True, (f"{len(labels)} certificates found and re-verified, "
                      "plain and at the stratum level")
    return out + _per_rank("reduction", range(5, n_max + 1), check)


def _suite_figures(n_max: int, budget: int) -> list[CheckResult]:
    def check(n: int) -> tuple[bool, str]:
        if gu.graph_summary(gu.stratum_graph(n)) == gu.load_golden_summary(n):
            return True, "node and edge sets match the transcription"
        return False, "computed graph differs from the golden transcription"
    return _per_rank("figures", (13, 14), check)


def _run_suites(suite: str, n_max: Optional[int], budget: int) -> list[CheckResult]:
    defaults = {"oracle": 8, "closedforms": 14, "reduction": 8, "figures": 14}
    runners: dict[str, Callable[[int, int], list[CheckResult]]] = {
        "oracle": _suite_oracle,
        "closedforms": _suite_closedforms,
        "reduction": _suite_reduction,
        "figures": _suite_figures,
    }
    names = list(runners) if suite == "all" else [suite]
    results: list[CheckResult] = []
    for name in names:
        results.extend(runners[name](defaults[name] if n_max is None else n_max,
                                     budget))
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


def element_report(n: int, word: list[int], omega: int, budget: int) -> dict:
    sim = -1 if omega == -2 else 0
    w = from_word(n, word, omega=omega, similitude=sim)
    report: dict = {
        "window": str(w),
        "length": w.length(),
        "omega": w.omega(),
        "supp_sigma": sorted(roots.supp_sigma(w)),
        "s_w_sigma": sorted(roots.s_w_sigma(w)),
        "phi_w_size": len(roots.phi_w(w)),
    }
    try:
        # |LP(w)| = |R(w)|, the size of the inversion ideal under Phi_w
        report["lp_size"] = sum(
            1 for _ in roots._iter_inv_ideal(w.n, roots.phi_w(w), budget))
    except roots.BudgetExceededError:
        report["lp_size"] = f"not computed (budget {budget} exceeded)"
    if w.is_min_coset_rep() and w.omega() == -2:
        verdict = reduction.is_empty_basic(w)
        report["empty"] = verdict.empty
        if verdict.witness is not None:
            report["witness"] = str(verdict.witness)
    else:
        report["empty"] = "not applicable (needs a minimal representative in the base coset)"
    return report


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
    report = element_report(args.n, word, args.omega, _budget())
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


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
