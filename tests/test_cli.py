"""Command-line surface: formats, round trips, exit codes."""

import hashlib
import json
import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import pytest

from adlv import cli, gu, reduction, roots
from adlv.gu import StratumClass, classify, s_admissible, stratum_record, w_kl
from adlv.weyl import WeylElement


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_table_minimal(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header + single row
    assert "(1,2)" in lines[1] and "dl" in lines[1]


def test_classify_json_n5(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1 and data["n"] == 5
    assert len(data["strata"]) == 10
    nonempty = [s for s in data["strata"] if s["class"] != "empty"]
    assert len(nonempty) == 6
    not_dl = [s for s in data["strata"] if s["class"] == "not_dl"]
    assert [(s["k"], s["l"]) for s in not_dl] == [(3, 4)]
    assert not_dl[0]["target"] == {"k": 1, "l": 4}


def test_classify_json_roundtrip():
    # parse(emit(x)) reproduces every record field, n <= 14
    for n in range(2, 15):
        text = cli.classify_json(n)
        data = json.loads(text)
        assert json.dumps(data, indent=2) == text
        for s in data["strata"]:
            k, l = s["k"], s["l"]
            cls = classify(n, k, l)
            assert s["class"] == cls.value
            if cls is StratumClass.EMPTY:
                assert s["dim"] is None and s["parahoric"] is None
                continue
            rec = stratum_record(n, k, l)
            assert s["length"] == rec.length and s["dim"] == rec.dim
            assert s["parahoric"] == sorted(rec.parahoric)
            assert s["supp_sigma"] == sorted(rec.supp_sigma)
            assert s["s_w_sigma"] == sorted(rec.s_w_sigma)
            assert s["positive_coxeter"] == rec.positive_coxeter
            assert s["rank"] == rec.rank
            if rec.target is None:
                assert s["target"] is None
            else:
                assert s["target"] == {"k": rec.target.k, "l": rec.target.l}


def test_classify_json_deterministic():
    for n in (5, 13):
        a = cli.classify_json(n)
        b = cli.classify_json(n)
        assert a == b


_NODE_RE = re.compile(r'^  "w_\d+_\d+" \[label="w_\{\d+,\d+\}"\];$')
_EDGE_RE = re.compile(r'^  "w_\d+_\d+" -> "w_\d+_\d+";$')
_RANK_RE = re.compile(r'^  \{ rank=same;( "w_\d+_\d+";)+ \}$')


def _dot_is_well_formed(text):
    lines = text.splitlines()
    if lines[0] != "digraph strata {" or lines[-1] != "}":
        return False
    depth = 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                return False
    if depth != 0:
        return False
    if text.count('"') % 2:
        return False
    for line in lines[1:-1]:
        if line == "  node [shape=box];":
            continue
        if not (_NODE_RE.match(line) or _EDGE_RE.match(line) or _RANK_RE.match(line)):
            return False
    return True


def test_classify_dot(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "13", "--format", "dot")
    assert code == 0
    assert _dot_is_well_formed(out)
    # node set matches the figure
    nodes = set(re.findall(r'"w_(\d+)_(\d+)" \[', out))
    assert len(nodes) == 42
    assert ("7", "12") in nodes and ("2", "4") in nodes and ("2", "8") not in nodes
    assert '"w_3_12" -> "w_1_12";' in out


def test_classify_stays_closed_form(monkeypatch):
    # every field comes from a closed form: no reduced word, no generic
    # support or stable set, no representative, no element at all
    def forbidden(*args, **kwargs):
        raise AssertionError("classify called generic machinery")
    monkeypatch.setattr(WeylElement, "reduced_word", forbidden)
    monkeypatch.setattr(WeylElement, "__post_init__", forbidden)
    monkeypatch.setattr(roots, "supp_sigma", forbidden)
    monkeypatch.setattr(roots, "s_w_sigma", forbidden)
    monkeypatch.setattr(gu, "w_kl", forbidden)
    # and the JSON is written from its template, not encoded
    monkeypatch.setattr(json, "dumps", forbidden)
    for n in range(2, 21):
        assert json.loads(cli.classify_json(n))["n"] == n
        assert cli.classify_dot(n).startswith("digraph strata {")
        assert cli.classify_table(n).startswith("(k,l)")


def test_classify_renderers_build_no_record(monkeypatch):
    # json, dot and table format the closed-form rows as they arrive: no
    # record, no label and no frozenset on the way
    def forbidden(*args, **kwargs):
        raise AssertionError("a renderer built a record")
    monkeypatch.setattr(gu, "StratumRecord", forbidden)
    monkeypatch.setattr(gu, "StratumLabel", forbidden)
    monkeypatch.setattr(gu, "frozenset", forbidden, raising=False)
    for n in range(2, 21):
        assert json.loads(cli.classify_json(n))["n"] == n
        assert cli.classify_dot(n).startswith("digraph strata {")
        assert cli.classify_table(n).startswith("(k,l)")


# sha256 of the concatenated outputs for n = 2..40, each followed by a
# newline, as emitted before the stratum data moved into one record builder
_CLASSIFY_DIGESTS = {
    "json": "fb4092dccf8363e18c43f6409be6fcb2eabd41512d24d27afd46492e9f46e115",
    "dot": "7ff5f79b210944fcecf351ec375553170ab10f016c0da46588220e160d00a854",
    "table": "cf8f5560c8482868bbaa8cc66de0d4b315efb9ac6bf65a080094c2816ef08a2f",
}


@pytest.mark.parametrize("fmt", sorted(_CLASSIFY_DIGESTS))
def test_classify_output_is_byte_stable(fmt):
    render = {
        "json": lambda n: cli.classify_text(n, "json")[:-1],
        "dot": cli.classify_dot,
        "table": cli.classify_table,
    }[fmt]
    digest = hashlib.sha256()
    for n in range(2, 41):
        digest.update((render(n) + "\n").encode())
    assert digest.hexdigest() == _CLASSIFY_DIGESTS[fmt]


def _reference_json(n):
    # the schema-1 dict; `adlv classify --format json` must write exactly
    # its json.dumps(indent=2) bytes
    def label(lab):
        return None if lab is None else {"k": lab.k, "l": lab.l}
    return {"schema": 1, "n": n, "strata": [{
        "k": rec.label.k, "l": rec.label.l, "class": rec.stratum_class.value,
        "length": rec.length, "dim": rec.dim,
        "target": label(rec.target), "rank": rec.rank,
        "base": label(rec.base),
        "parahoric": None if rec.parahoric is None else sorted(rec.parahoric),
        "supp_sigma": sorted(rec.supp_sigma), "s_w_sigma": sorted(rec.s_w_sigma),
        "positive_coxeter": rec.positive_coxeter,
    } for rec in gu.stratum_records(n)]}


def test_classify_json_matches_json_dumps_reference():
    for n in range(2, 61):
        assert cli.classify_text(n, "json") == json.dumps(_reference_json(n), indent=2) + "\n"


def test_classify_json_n200_is_pinned():
    # sha256 and size of the json.dumps(indent=2) bytes of the n = 200 dict
    data = cli.classify_text(200, "json").encode()
    assert len(data) == 92_338_777
    assert hashlib.sha256(data).hexdigest() == (
        "b931309846ea0f0b0bd54b382454ca7334c04cd3ab7d2eade4d820c56088a819")


def test_classify_dot_n200_is_pinned():
    # sha256 and size of the `classify --n 200 --format dot` bytes
    data = cli.classify_text(200, "dot").encode()
    assert len(data) == 589_896
    assert hashlib.sha256(data).hexdigest() == (
        "4fb7d5ee56fb8c354e962e0ec5874655798cfd8f6478ac3d2d0f7a9eaa2d540c")


def test_entrypoint_exits_with_main_code(monkeypatch, capsys):
    # the console script reads sys.argv and exits with main's code
    monkeypatch.setattr(sys, "argv", ["adlv", "classify", "--n", "3", "--format", "dot"])
    with pytest.raises(SystemExit) as exc:
        cli.entrypoint()
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.classify_text(3, "dot")


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    """Run a script in this process; its exit code (0 when it returns) and output."""
    script = SCRIPTS / name
    monkeypatch.setattr(sys, "argv", [str(script), *argv])
    try:
        runpy.run_path(str(script), run_name="__main__")
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_export_script_writes_classify_output(tmp_path, monkeypatch, capsys):
    # the script and `adlv classify` write through one function
    assert run_script(monkeypatch, capsys, "export_graphs.py", "--out-dir",
                      str(tmp_path), "--n-min", "2", "--n-max", "6")[0] == 0
    for n in range(2, 7):
        for fmt in ("dot", "json"):
            code, out, _ = run_cli(capsys, "classify", "--n", str(n), "--format", fmt)
            assert code == 0
            assert (tmp_path / f"strata_n{n}.{fmt}").read_bytes() == out.encode()
    # a rank below 2 is a usage error, not a traceback, and writes nothing
    below = tmp_path / "below"
    code, _, err = run_script(monkeypatch, capsys, "export_graphs.py", "--out-dir",
                              str(below), "--n-min", "1", "--n-max", "3")
    assert code == 2 and "usage:" in err and "--n-min must be at least 2" in err
    assert not below.exists()
    # so is a reversed range
    reversed_range = tmp_path / "reversed"
    code, _, err = run_script(monkeypatch, capsys, "export_graphs.py", "--out-dir",
                              str(reversed_range), "--n-min", "5", "--n-max", "3")
    assert code == 2 and "usage:" in err
    assert "--n-max must be at least --n-min (5), got 3" in err
    assert not reversed_range.exists()


def test_stratification_report_script(monkeypatch, capsys):
    code, out, _ = run_script(monkeypatch, capsys, "stratification_report.py",
                              "--n-min", "2", "--n-max", "8")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [int(row[0]) for row in rows] == list(range(2, 9))
    for row in rows:
        n, labels, dl, not_dl, empty, dim, orbits = map(int, row[:7])
        assert labels == dl + not_dl + empty == n * (n - 1) // 2
        assert (dim, orbits) == (n - 2, n // 2)
    code, out, err = run_script(monkeypatch, capsys, "stratification_report.py",
                                "--n-min", "1", "--n-max", "3")
    assert code == 2 and out == ""
    assert "usage:" in err and "--n-min must be at least 2" in err
    code, out, err = run_script(monkeypatch, capsys, "stratification_report.py",
                                "--n-min", "5", "--n-max", "3")
    assert code == 2 and out == ""
    assert "usage:" in err and "--n-max must be at least --n-min (5), got 3" in err


def test_classify_ceiling_script(monkeypatch, capsys):
    # one `adlv classify` child per format; its bytes are those classify writes
    code, out, _ = run_script(monkeypatch, capsys, "classify_ceiling.py", "--n", "5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["5", "json"], ["5", "dot"], ["5", "table"]]
    for _, fmt, seconds, peak_mb, size in rows:
        assert float(seconds) > 0 and float(peak_mb) > 0
        assert int(size) == len(cli.classify_text(5, fmt).encode())


def test_oracle_ceiling_script(monkeypatch, capsys):
    # one `adlv verify --suite oracle` child per rank bound, with its exit code
    code, out, _ = run_script(monkeypatch, capsys, "oracle_ceiling.py", "--n", "5")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert len(rows) == 1
    n_max, seconds, peak_mb, exit_code = rows[0]
    assert (n_max, exit_code) == ("5", "0")
    assert float(seconds) > 0 and float(peak_mb) > 0
    code, _, err = run_script(monkeypatch, capsys, "oracle_ceiling.py", "--n", "1")
    assert code == 2 and "--n must be at least 2" in err


def test_classify_json_holds_at_most_two_copies_of_its_text():
    # the per-stratum strings and their one join; no third, wrapped copy
    tracemalloc.start()
    try:
        text = cli.classify_json(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * len(text)


@pytest.mark.parametrize("fmt", ["json", "table", "dot"])
def test_classify_writes_its_text_in_slices(monkeypatch, fmt):
    # no stdout write copies the whole text: the body goes out in slices,
    # the final newline on its own
    writes = []

    class Recorder:
        def write(self, s):
            writes.append(s)
            return len(s)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert cli.main(["classify", "--n", "60", "--format", fmt]) == 0
    text = cli.classify_text(60, fmt)
    assert "".join(writes) == text
    assert max(map(len, writes)) <= cli._WRITE_SLICE == 1 << 20
    # n = 60 JSON is 2.7 MB, so it takes several writes
    assert fmt != "json" or len(writes) > 2


def test_classify_classifies_each_label_once(monkeypatch):
    # one classification per label in the graph, the DOT and the JSON
    calls = []
    real = gu.classify

    def counting(n, k, l):
        calls.append((k, l))
        return real(n, k, l)

    monkeypatch.setattr(gu, "classify", counting)
    n = 40
    labels = len(s_admissible(n))
    gu.stratum_graph(n)
    assert len(calls) == labels
    calls.clear()
    cli.classify_dot(n)
    assert len(calls) == labels
    calls.clear()
    cli.classify_json(n)
    assert sorted(calls) == sorted(s_admissible(n))


def test_classify_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "--n", "1")
    assert code == 2
    assert "at least 2" in err


def test_main_parses_with_one_parser_built_at_import(monkeypatch, capsys):
    # main must not build a parser per call; two different calls both work
    def no_parser():
        raise AssertionError("main built a parser")
    monkeypatch.setattr(cli, "build_parser", no_parser)
    code, out, _ = run_cli(capsys, "classify", "--n", "5", "--format", "dot")
    assert code == 0 and out == cli.classify_text(5, "dot")
    code, out, err = run_cli(capsys, "element", "--n", "5", "--word", "0,1",
                             "--show", "length")
    assert code == 0 and out == "length: 2\n" and err == ""


def test_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_figures(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "figures")
    assert code == 0
    assert "[ok] figures n=13" in out and "[ok] figures n=14" in out


def test_verify_oracle_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--n-max", "6")
    assert code == 0
    assert out.count("[ok]") == 5


def test_verify_reduction_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--n-max", "7")
    assert code == 0
    assert out.splitlines() == [
        "[ok] reduction chain convention: superscript word s3 s0 s1 at n=5",
        *(f"[ok] reduction n={n}: {count} certificates found and re-verified, "
          "plain and at the stratum level" for n, count in ((5, 1), (6, 1), (7, 3)))]


def test_verify_reduction_searches_once_per_label_at_its_level(monkeypatch):
    # one leveled certificate per not-DL label stands for the plain one too
    searches, levels = [], []
    real_find, real_verify = reduction.find_reduction, reduction.ReductionCertificate.verify

    def find(*args, **kwargs):
        searches.append(kwargs.get("level"))
        return real_find(*args, **kwargs)

    def verify(cert):
        levels.append(cert.level)
        return real_verify(cert)

    monkeypatch.setattr(reduction, "find_reduction", find)
    monkeypatch.setattr(reduction.ReductionCertificate, "verify", verify)
    n = 9
    not_dl = [rec for rec in gu.stratum_records(n) if rec.stratum_class is StratumClass.NOT_DL]
    assert cli._check_reduction(n, roots.DEFAULT_BUDGET)[0]
    assert searches == levels == [rec.s_w_sigma for rec in not_dl]
    assert frozenset() in levels


def test_verify_closedforms_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closedforms", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[ok] closedforms n={n}" for n in range(2, 7)]


def test_verify_closedforms_reports_wrong_stable_set(monkeypatch, capsys):
    # the records and s_closed read the stable set off one bounds function
    monkeypatch.setattr(gu, "_stable_runs", lambda n, k, l: (range(n, n + 1),))
    code, out, _ = run_cli(capsys, "verify", "--suite", "closedforms", "--n-max", "6")
    assert code == 1
    assert "[FAIL] closedforms n=2: stable-subset mismatch" in out


def test_verify_reduction_reports_wrong_stable_set(monkeypatch, capsys):
    # a level the source does not keep stable makes find_reduction raise;
    # the suite reports it as a failure at that rank, not as a traceback.
    # The fault goes on the one record: records share their sets, so a
    # wrong s_closed would reach every label with the same closed-form key
    real = gu.stratum_records
    monkeypatch.setattr(gu, "stratum_records", lambda n: [
        rec._replace(s_w_sigma=frozenset({0})) if (n, *rec.label) == (7, 4, 6) else rec
        for rec in real(n)])
    code, out, _ = run_cli(capsys, "verify", "--suite", "reduction", "--n-max", "9")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and fails[0].startswith("[FAIL] reduction n=7: ")
    assert "(4,6)" in fails[0] and "not stable" in fails[0]
    assert "n=8" not in out and "n=9" not in out


@pytest.mark.parametrize("module, name, fake, suite, line", [
    (gu, "classify_by_criterion", lambda n, k, l: StratumClass.EMPTY, "oracle",
     "[FAIL] oracle n=2: first counterexample (1,2): closed form dl, criterion empty"),
    (reduction, "is_empty_basic_v_form",
     lambda w, budget: reduction.EmptinessVerdict(False), "oracle",
     "[FAIL] oracle n=3: first counterexample (2,3): closure empty, "
     "ideal walk empty=False"),
    (gu, "w_kl", lambda n, k, l: w_kl(n, 1, 2), "closedforms",
     "[FAIL] closedforms n=3: length of (1,3) is 0, not 1"),
    (gu, "_supp_runs", lambda n, k, l: (range(n, n + 1),), "closedforms",
     "[FAIL] closedforms n=2: twisted support mismatch at (1,2)"),
    (gu, "classify", lambda n, k, l: StratumClass.DL, "closedforms",
     "[FAIL] closedforms n=3: dimension/component count"),
    (reduction, "find_reduction", lambda *args, **kwargs: None, "reduction",
     "[FAIL] reduction n=5: no verified certificate for (3,4)"),
    (gu, "load_golden_summary", lambda n: {}, "figures",
     "[FAIL] figures n=13: computed graph differs from the golden transcription"),
    (reduction, "verify_chain", lambda *a, **k: False, "reduction",
     "[FAIL] reduction chain convention: superscript word s3 s0 s1 at n=5"),
], ids=["criterion", "ideal-walk", "length", "support", "dimension",
        "no-certificate", "figures", "chain-convention"])
def test_verify_reports_each_check_failure(monkeypatch, capsys, module, name,
                                           fake, suite, line):
    # a wrong closed form or oracle makes its check fail with its own
    # detail, and the suite stops at that rank
    monkeypatch.setattr(module, name, fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "6")
    assert code == 1
    assert out.count("[FAIL]") == 1 and out.splitlines()[-1] == line


def test_check_oracle_skips_the_ideal_walk_above_its_cap(monkeypatch):
    def banned(*args):
        raise AssertionError("the ideal walk ran above WALK_N_MAX")

    monkeypatch.setattr(reduction, "is_empty_basic_v_form", banned)
    assert cli._check_oracle(cli.WALK_N_MAX + 1, roots.DEFAULT_BUDGET) == (
        True, "closed form = criterion on all labels")


@pytest.mark.parametrize("raw", ["abc", "0"])
def test_verify_rejects_invalid_budget(monkeypatch, capsys, raw):
    monkeypatch.setenv("ADLV_BFS_BUDGET", raw)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "closedforms", "--n-max", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid ADLV_BFS_BUDGET: {raw!r}" in captured.err


@pytest.mark.parametrize("n_max", ["0", "1", "-3"])
def test_verify_rejects_n_max_below_two(capsys, n_max):
    code, out, err = run_cli(capsys, "verify", "--suite", "closedforms",
                             "--n-max", n_max)
    assert code == 2
    assert out == ""
    assert "--n-max must be at least 2" in err


def test_verify_reports_failure(monkeypatch, capsys):
    # inject a check through the suite table to pin the exit code: an overrun
    # at one rank, a failure at the next, and nothing run after the failure;
    # a failure outranks an undecided check
    def fake(n, budget):
        if n == 3:
            raise roots.BudgetExceededError("injected overrun")
        return False, "injected counterexample (3,4)"
    monkeypatch.setitem(cli._SUITES, "oracle", (lambda n_max: (3, 4, 5), fake))
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
    assert code == 1
    assert out.count("[FAIL]") == 1 and out.count("[budget]") == 1
    assert "[budget] oracle n=3: undecided (injected overrun)" in out
    assert "[FAIL] oracle n=4: injected counterexample (3,4)" in out
    assert "n=5" not in out


def _verify_names(capsys, *argv):
    code, out, _ = run_cli(capsys, "verify", "--suite", *argv)
    return code, [line.split(":")[0] for line in out.splitlines()]


def test_verify_all_runs_every_suite_at_its_ranks(capsys):
    def ok(suite, ranks):
        return [f"[ok] {suite} n={n}" for n in ranks]
    chain = ["[ok] reduction chain convention"]
    figures = ok("figures", (13, 14))
    assert _verify_names(capsys, "all") == (0, [
        *ok("oracle", range(2, 9)), *ok("closedforms", range(2, 15)), *chain,
        *ok("reduction", range(5, 9)), *figures])
    # --n-max caps every suite but figures
    assert _verify_names(capsys, "all", "--n-max", "5") == (0, [
        *ok("oracle", range(2, 6)), *ok("closedforms", range(2, 6)), *chain,
        *ok("reduction", (5,)), *figures])
    # below the reduction suite's first rank only its chain convention runs
    assert _verify_names(capsys, "reduction", "--n-max", "4") == (0, chain)


def test_verify_reads_one_record_pass_per_rank(monkeypatch, capsys):
    # the checks read the records classify serves: one classification per
    # label and rank, and none of the per-label accessors
    calls = []
    real = gu.classify

    def counting(n, k, l):
        calls.append((n, k, l))
        return real(n, k, l)

    def banned(*args, **kwargs):
        raise AssertionError("verify called a per-label accessor")

    monkeypatch.setattr(gu, "classify", counting)
    for name in ("w_prime", "s_admissible"):
        monkeypatch.setattr(gu, name, banned)
    for suite, first in (("oracle", 2), ("closedforms", 2), ("reduction", 5)):
        calls.clear()
        code, _, _ = run_cli(capsys, "verify", "--suite", suite, "--n-max", "7")
        assert code == 0
        assert len(calls) == sum(n * (n - 1) // 2 for n in range(first, 8)), suite


def test_verify_budget_overrun_is_undecided(monkeypatch, capsys):
    monkeypatch.setenv("ADLV_BFS_BUDGET", "100")
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--n-max", "8")
    assert code == 3
    assert "[ok] oracle n=6" in out
    assert "[budget] oracle n=7: undecided (" in out and "exceeded 100" in out
    # the overrun also says how deep the walk got
    assert re.search(r"exceeded 100 nodes at length \d+\)", out)
    assert "[FAIL]" not in out


# ---------------------------------------------------------------------------
# element
# ---------------------------------------------------------------------------

def test_element_w15(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "5", "--word", "0,1,2",
                           "--omega", "-2")
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["length"] == "3"
    assert report["omega"] == "-2"
    assert report["empty"] == "False"


def test_element_identity(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "5", "--word", "")
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["length"] == "0"
    assert report["empty"].startswith("not applicable")


def test_element_empty_verdict_with_witness(monkeypatch, capsys):
    # the word of w_{4,10} at n=13: (s_0...s_7)(s_12 s_0 s_1) tau;
    # its length-positive set dwarfs the budget, which the emptiness closure
    # does not use
    monkeypatch.setenv("ADLV_BFS_BUDGET", "20000")
    word = ",".join(str(i) for i in list(range(0, 8)) + [12, 0, 1])
    code, out, _ = run_cli(capsys, "element", "--n", "13", "--word", word,
                           "--omega", "-2")
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["length"] == str(4 + 10 - 3)
    assert report["lp_size"].startswith("not computed")
    assert report["empty"] == "True"
    assert "witness" in report


@pytest.mark.parametrize("n,k,l", [(5, 3, 4), (7, 2, 6), (8, 4, 7), (9, 5, 8)])
def test_element_lp_size_counts_lp_set(n, k, l):
    w = w_kl(n, k, l)
    word, omega = w.reduced_word()
    report = cli.element_report(n, list(word), omega, roots.DEFAULT_BUDGET)
    assert report["lp_size"] == len(roots.lp_set(w))


def test_element_lp_size_budget_overrun(monkeypatch, capsys):
    # w_{3,9} at n = 10: |LP(w)| = 184 800, far over a budget of 1000
    monkeypatch.setenv("ADLV_BFS_BUDGET", "1000")
    word = ",".join(str(i) for i in list(range(0, 7)) + [9, 0])
    code, out, _ = run_cli(capsys, "element", "--n", "10", "--word", word,
                           "--omega", "-2", "--show", "length,lp_size")
    assert code == 0
    report = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert report["length"] == str(3 + 9 - 3)
    assert report["lp_size"] == "not computed (budget 1000 exceeded)"


def test_element_show_computes_only_the_fields_shown(monkeypatch, capsys):
    # at n = 40 the ideal walk behind lp_size would take seconds and
    # gigabytes; --show length must not start it
    def no_walk(*args):
        raise AssertionError("inversion ideal walked for an unshown field")
    monkeypatch.setattr(roots, "_iter_inv_ideal", no_walk)
    code, out, _ = run_cli(capsys, "element", "--n", "40",
                           "--word", ",".join(map(str, range(21))),
                           "--omega", "-2", "--show", "length")
    assert code == 0 and out == "length: 21\n"


def test_element_show_filter(capsys):
    code, out, _ = run_cli(capsys, "element", "--n", "5", "--word", "2",
                           "--show", "length,omega")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["length: 1", "omega: 0"]


def test_element_show_rejects_unknown_fields(capsys):
    code, out, err = run_cli(capsys, "element", "--n", "5", "--word", "0,1",
                             "--show", "length,bogus,nope")
    assert code == 2 and out == ""
    assert "bogus, nope" in err
    assert all(name in err for name in cli.REPORT_FIELDS)
    # witness is a valid name even when the report has none
    code, out, _ = run_cli(capsys, "element", "--n", "5", "--word", "0,1",
                           "--show", "length,witness")
    assert code == 0 and out == "length: 2\n"
    assert set(cli.element_report(5, [0, 1], 0, 1000)) <= set(cli.REPORT_FIELDS)


def test_element_rejects_rank_below_two(capsys):
    code, out, err = run_cli(capsys, "element", "--n", "1", "--word", "")
    assert code == 2 and out == ""
    assert "n must be at least 2, got 1" in err


def test_element_malformed_word(capsys):
    code, _, err = run_cli(capsys, "element", "--n", "5", "--word", "0,9")
    assert code == 2
    assert "out of range" in err
    code, _, err = run_cli(capsys, "element", "--n", "5", "--word", "a,b")
    assert code == 2


def test_element_out_of_range_omega(capsys, monkeypatch):
    def no_report(*args):
        raise AssertionError("report computed for a rejected element")
    monkeypatch.setattr(cli, "element_report", no_report)
    monkeypatch.setattr(cli, "_report", no_report)
    for omega in ("3000000000", "-3000000000", str((1 << 31) - 5)):
        code, out, err = run_cli(capsys, "element", "--n", "5", "--word", "0",
                                 "--omega", omega)
        assert code == 2 and out == ""
        assert "out of range" in err
