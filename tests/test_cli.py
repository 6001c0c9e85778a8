"""Command-line surface: formats, round trips, exit codes."""

import hashlib
import json
import re

import pytest

from adlv import cli, gu, roots
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
        data = json.loads(json.dumps(cli.classify_json(n)))
        assert data == cli.classify_json(n)
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
        a = json.dumps(cli.classify_json(n))
        b = json.dumps(cli.classify_json(n))
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
    for n in range(2, 21):
        assert cli.classify_json(n)["n"] == n
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
        "json": lambda n: json.dumps(cli.classify_json(n), indent=2),
        "dot": cli.classify_dot,
        "table": cli.classify_table,
    }[fmt]
    digest = hashlib.sha256()
    for n in range(2, 41):
        digest.update((render(n) + "\n").encode())
    assert digest.hexdigest() == _CLASSIFY_DIGESTS[fmt]


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
    assert "chain convention" in out


def test_verify_closedforms_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "closedforms", "--n-max", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"[ok] closedforms n={n}" for n in range(2, 7)]


def test_verify_closedforms_reports_wrong_stable_set(monkeypatch, capsys):
    monkeypatch.setattr(gu, "s_closed", lambda n, k, l: frozenset({n}))
    code, out, _ = run_cli(capsys, "verify", "--suite", "closedforms", "--n-max", "6")
    assert code == 1
    assert "[FAIL] closedforms n=2: stable-subset mismatch" in out


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
    # force a failing check through the suite registry to pin the exit code;
    # a failure outranks an undecided check
    def fake(n_max, budget):
        return [("overrun", None, "undecided (injected)"),
                ("forced", False, "injected counterexample (3,4)")]
    monkeypatch.setitem(cli.__dict__, "_suite_oracle", fake)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle")
    assert code == 1
    assert "[FAIL] forced" in out and "[budget] overrun" in out


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
    for omega in ("3000000000", "-3000000000", str((1 << 31) - 5)):
        code, out, err = run_cli(capsys, "element", "--n", "5", "--word", "0",
                                 "--omega", omega)
        assert code == 2 and out == ""
        assert "out of range" in err
