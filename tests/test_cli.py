import io
import json
import subprocess
import sys

import pytest

import szlab.cli as cli
import szlab.enumeration as enumeration
from szlab.cli import main
from szlab.errors import InvariantViolation
from szlab.formats import to_graph6
from szlab.graphs import Graph, complete_bipartite, cycle_graph

from .conftest import path_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_compute_graph6(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "Cr")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == 8
    assert payload["wiener"] == 8 and payload["szeged"] == 16


def test_compute_edges(capsys):
    code, out, _ = run_cli(capsys, "compute", "--edges", "3 2\\n0 1\\n1 2")
    assert code == 0
    payload = json.loads(out)
    assert payload["wiener"] == 4 and payload["szeged"] == 4


def test_compute_disconnected_exit_3(capsys):
    g6 = to_graph6(Graph(4, [(0, 1), (2, 3)]))
    code, _, err = run_cli(capsys, "compute", "--graph6", g6)
    assert code == 3
    assert "connected" in err


def test_compute_parse_failure_exit_2(capsys):
    code, _, err = run_cli(capsys, "compute", "--graph6", "~~")
    assert code == 2
    assert err


def test_compute_requires_exactly_one_source(capsys):
    code, _, _ = run_cli(capsys, "compute", "--graph6", "Cr", "--edges", "2 1\\n0 1")
    assert code == 2
    code, _, _ = run_cli(capsys, "compute")
    assert code == 2


def test_compute_csv_and_human(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "Cr", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "u,v,n_u,n_v,n_0"
    code, out, _ = run_cli(capsys, "compute", "--graph6", "Cr", "--format", "human")
    assert code == 0
    assert "gap" in out


def test_compute_file_inputs(tmp_path, capsys):
    g6file = tmp_path / "g.g6"
    g6file.write_text("Cr\n")
    code, out, _ = run_cli(capsys, "compute", "--file", str(g6file))
    assert code == 0 and json.loads(out)["n"] == 4
    elfile = tmp_path / "g.txt"
    elfile.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
    code, out, _ = run_cli(capsys, "compute", "--file", str(elfile))
    assert code == 0 and json.loads(out)["gap"] == 8


def test_decompose_c4_pendant(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--edges", "5 5\\n0 1\\n1 2\\n2 3\\n0 3\\n0 4")
    assert code == 0
    payload = json.loads(out)
    assert payload["gap"] == 12 and payload["bound"] == 12
    within = [b["within_surplus"] for b in payload["blocks"]]
    assert sorted(within) == [0, 8]
    cross = [b["cross_surplus"] for b in payload["blocks"] if "cross_surplus" in b]
    assert cross == [4]


def test_decompose_hypothesis_exit_4(capsys):
    code, _, err = run_cli(capsys, "decompose", "--edges", "3 2\\n0 1\\n1 2")
    assert code == 4
    assert "m >= n" in err
    c5 = to_graph6(cycle_graph(5))
    code, _, err = run_cli(capsys, "decompose", "--graph6", c5)
    assert code == 4
    assert "bipartite" in err
    # The null graph: connected, bipartite and m >= n would otherwise hold vacuously.
    code, out, err = run_cli(capsys, "decompose", "--graph6", "?")
    assert code == 4 and out == ""
    assert "connected violated" in err


def test_decompose_pairs_csv(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--graph6", to_graph6(cycle_graph(4)), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("x,y,")
    assert len(lines) == 1 + 6


def test_decompose_json_with_pairs(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--graph6", to_graph6(cycle_graph(4)), "--pairs")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 6
    assert all(row["surplus"] >= 1 for row in payload["pairs"])


def test_enumerate_range(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--n", "4..5")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert [r["n"] for r in payload["reports"]] == [4, 5]
    assert all(r["violations"] == [] for r in payload["reports"])
    assert all(r["extremal_match"] for r in payload["reports"])
    assert "checked" in err


def test_enumerate_output_identical_across_workers(capsys):
    code, out1, _ = run_cli(capsys, "enumerate", "--n", "6", "--workers", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, "enumerate", "--n", "6", "--workers", "4")
    assert code == 0
    assert out1 == out2


def test_enumerate_over_limit_exit_5(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "13")
    assert code == 5
    assert "limit" in err


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "canonical_code,n,m,wiener,szeged,gap,scope"
    assert len(lines) == 3  # two classes with m >= 5
    assert all(line.endswith(",checked") for line in lines[1:])


def test_extremal_human(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--n", "5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2  # one graph6 member, one summary line
    summary = json.loads(lines[-1])
    assert summary == {"n": 5, "count": 1, "all_gaps_equal_4n_minus_8": True}


def test_extremal_n6_two_members(capsys):
    code, out, _ = run_cli(capsys, "extremal", "--n", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    fam = payload["families"][0]
    assert fam["count"] == 2 and len(fam["members"]) == 2


def test_extremal_too_small_exit_2(capsys):
    # extremal_family refuses n = 3 before any family is written.
    for n in ("3", "3..5"):
        code, out, err = run_cli(capsys, "extremal", "--n", n)
        assert code == 2 and out == ""
        assert "n >= 4" in err


@pytest.mark.parametrize("command", ["enumerate", "extremal"])
def test_reversed_n_range_is_a_usage_error(capsys, command):
    # An empty range would otherwise report "no violations" over no graphs.
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "6..4"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "A <= B" in err


def test_canon_command(capsys):
    code, out, _ = run_cli(capsys, "canon", "--graph6", "Cl")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "canon", "--graph6", "Cr")
    assert code2 == 0
    assert out == out2  # both are 4-cycles


def test_verify_from_file(tmp_path, capsys):
    stream = tmp_path / "in.g6"
    stream.write_text("Cr\nD?{\nbroken~line\n")
    code, out, err = run_cli(capsys, "verify", "--file", str(stream))
    assert code == 0
    payload = json.loads(out)
    assert "line 3" in err
    ns = {r["n"]: r for r in payload["reports"]}
    assert ns[4]["min_gap"] == 8


def _mixed_stream() -> list[str]:
    """Blank and malformed lines, K4, a tree, a disconnected graph, relabelled equality graphs."""
    c4_pendant = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)]

    def relabelled(n, edges, perm):
        return to_graph6(Graph(n, [(perm[u], perm[v]) for u, v in edges]))

    return [
        "",
        to_graph6(cycle_graph(4)),
        "C",
        "   ",
        relabelled(4, cycle_graph(4).edges, [2, 0, 3, 1]),
        to_graph6(Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])),
        to_graph6(path_graph(4)),
        to_graph6(Graph(4, [(0, 1), (2, 3)])),
        "broken~line",
        relabelled(5, c4_pendant, [4, 3, 2, 1, 0]),
        relabelled(5, c4_pendant, [1, 2, 3, 4, 0]),
        to_graph6(complete_bipartite(2, 3)),
        "",
    ]


def test_verify_stream_same_for_any_worker_count(tmp_path, capsys):
    stream = tmp_path / "mixed.g6"
    stream.write_text("\n".join(_mixed_stream()) + "\n")
    for fmt in ("json", "csv"):
        runs = []
        for workers in ("1", "2"):
            argv = ["verify", "--file", str(stream), "--format", fmt, "--workers", workers]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0
            runs.append((out, [ln for ln in err.splitlines() if "checked" not in ln]))
        assert runs[0] == runs[1]
        out, err = runs[0]
        assert err[0].startswith("szlab: line 3: ") and err[1].startswith("szlab: line 9: ")
        assert err[2:] == ["szlab: 2 unparseable line(s) skipped"]
    # The CSV lists every connected graph: K4 and the tree too, not the
    # disconnected one, and says which of them the JSON report rejects.
    rows = out.splitlines()
    assert rows[0] == "canonical_code,n,m,wiener,szeged,gap,scope"
    n_m_scope = sorted((*map(int, r.split(",")[1:3]), r.split(",")[-1]) for r in rows[1:])
    assert n_m_scope == [
        (4, 3, "m_below_n"),
        (4, 4, "checked"),
        (4, 4, "checked"),
        (4, 6, "not_bipartite"),
        (5, 5, "checked"),
        (5, 5, "checked"),
        (5, 6, "checked"),
    ]
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream), "--workers", "2")
    by_n = {r["n"]: r for r in json.loads(out)["reports"]}
    assert (by_n[4]["graphs_checked"], by_n[4]["rejected"]) == (2, 3)
    assert (by_n[5]["graphs_checked"], len(by_n[5]["equality_graphs"])) == (3, 1)


def test_verify_csv_scope_agrees_with_json(tmp_path, capsys):
    # K4 is connected, so it gets a CSV row, but the JSON report rejects it.
    stream = tmp_path / "k4.g6"
    stream.write_text("C~\nCr\n")
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream), "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["Cr,4,4,8,16,8,checked", "C~,4,6,6,6,0,not_bipartite"]
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream))
    (report,) = json.loads(out)["reports"]
    assert (report["graphs_checked"], report["rejected"]) == (1, 1)


def _long_header(g6: str) -> str:
    """The same record with the four-byte size header graph6 reserves for n > 62."""
    n = ord(g6[0]) - 63
    return "~" + "".join(chr((n >> s & 0x3F) + 63) for s in (12, 6, 0)) + g6[1:]


@pytest.mark.parametrize(
    "spelling", [str, ">>graph6<<".__add__, _long_header], ids=["plain", "prefixed", "long_header"]
)
def test_verify_names_graphs_by_standard_graph6(tmp_path, capsys, monkeypatch, spelling):
    standard = to_graph6(Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5)]))
    stream = tmp_path / "one.g6"
    stream.write_text(spelling(standard) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream))
    assert code == 0
    (report,) = json.loads(out)["reports"]
    assert [e["graph6"] for e in report["equality_graphs"]] == [standard]
    # A forged gap one below the bound puts the same graph among the violations.
    compute = enumeration.compute_invariants

    def forged(g):
        report = compute(g)
        return report._replace(gap=report.gap - 1)

    monkeypatch.setattr(enumeration, "compute_invariants", forged)
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream), "--workers", "1")
    assert code == 0
    assert json.loads(out)["reports"][0]["violations"] == [standard]


def test_verify_parses_each_line_once(tmp_path, capsys, monkeypatch):
    import szlab.enumeration as enumeration

    lines = _mixed_stream()
    parsed, encoded = [], []
    parse, encode = enumeration.parse_graph6, enumeration.to_graph6
    monkeypatch.setattr(enumeration, "parse_graph6", lambda t: parsed.append(t) or parse(t))
    monkeypatch.setattr(enumeration, "to_graph6", lambda g: encoded.append(g) or encode(g))
    stream = tmp_path / "mixed.g6"
    stream.write_text("\n".join(lines) + "\n")
    code, _, _ = run_cli(capsys, "verify", "--file", str(stream), "--workers", "1")
    assert code == 0
    assert len(parsed) == sum(1 for ln in lines if ln.strip())
    # Only the records a report names are encoded: the two 4-cycles and the
    # two 4-cycles with a pendant, all equality graphs.
    assert len(encoded) == 4


def test_enumerate_runs_one_canon_search_per_class(capsys, monkeypatch):
    # generate canonizes only the children whose new edge has the greatest
    # degree key, one per orbit; the report stage reuses the forms it yields,
    # and nothing else is canonized.
    import szlab.canon as canon

    searches = []
    search = canon._canonical_labeling
    monkeypatch.setattr(canon, "_canonical_labeling", lambda g: searches.append(g) or search(g))
    for fmt in ("json", "csv"):
        searches.clear()
        code, _, _ = run_cli(capsys, "enumerate", "--n", "4..8", "--format", fmt)
        assert code == 0
        assert len(searches) == 536


def test_enumerate_full_range(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4..8")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert len(reports) == 5
    assert all(r["violations"] == [] for r in reports)
    assert [r["min_gap"] for r in reports] == [4 * n - 8 for n in range(4, 9)]


def test_console_entry_point_via_stdin():
    from szlab.graphs import complete_bipartite

    stream = "Cr\n" + to_graph6(complete_bipartite(2, 3)) + "\n"
    proc = subprocess.run(
        [sys.executable, "-m", "szlab.cli", "verify"],
        input=stream,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    reports = json.loads(proc.stdout)["reports"]
    by_n = {r["n"]: r for r in reports}
    assert by_n[4]["min_gap"] == 8
    assert by_n[5]["min_gap"] == 22  # K_{2,3} alone at n=5


def test_verify_empty_stream(capsys):
    code, out, _ = run_cli(capsys, "verify", "--file", "/dev/null")
    assert code == 0
    assert json.loads(out)["reports"] == []


def test_compute_empty_file_exit_2(tmp_path, capsys):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    code, _, err = run_cli(capsys, "compute", "--file", str(empty))
    assert code == 2
    assert "empty" in err


@pytest.mark.parametrize("workers", ["0", "-3", "x"])
@pytest.mark.parametrize("argv", [["verify"], ["enumerate", "--n", "5"]], ids=["verify", "enumerate"])
def test_workers_below_one_are_usage_errors(capsys, argv, workers):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err


def test_verify_rejects_the_null_graph(tmp_path, capsys):
    stream = tmp_path / "null.g6"
    stream.write_text("?\n")
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream))
    assert code == 0
    [report] = json.loads(out)["reports"]
    assert (report["n"], report["graphs_checked"], report["rejected"]) == (0, 0, 1)
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream), "--format", "csv")
    assert code == 0 and out == "canonical_code,n,m,wiener,szeged,gap,scope\n"


def test_compute_null_graph_is_all_zero(capsys):
    code, out, _ = run_cli(capsys, "compute", "--graph6", "?")
    assert code == 0
    payload = json.loads(out)
    assert payload["wiener"] == payload["szeged"] == payload["gap"] == 0


@pytest.mark.parametrize("argv", [["--n", "0"], ["--n", "x"], ["--n", "4", "--min-edges", "-1"]])
def test_enumerate_bad_arguments_are_usage_errors(capsys, argv):
    # argparse rejects them: exit 2 with a usage line, never a ValueError traceback.
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


def test_canon_above_size_limit_exit_2(capsys):
    code, out, err = run_cli(capsys, "canon", "--graph6", to_graph6(path_graph(17)))
    assert code == 2 and out == ""
    assert "16" in err


def test_invariant_violation_is_not_mapped_to_an_exit_code(monkeypatch):
    def broken(g):
        raise InvariantViolation("corrupted check")

    monkeypatch.setattr(cli, "compute_invariants", broken)
    with pytest.raises(InvariantViolation, match="corrupted check"):
        main(["compute", "--graph6", "Cr"])


def test_enumerate_uses_one_pool_per_run(capsys, monkeypatch):
    pools = []
    real = enumeration.Pool
    monkeypatch.setattr(enumeration, "Pool", lambda **kw: pools.append(kw) or real(**kw))
    code, out, _ = run_cli(capsys, "enumerate", "--n", "4..6", "--workers", "2")
    assert code == 0 and len(pools) == 1
    assert [r["n"] for r in json.loads(out)["reports"]] == [4, 5, 6]


def test_verify_uses_one_pool_per_run(tmp_path, capsys, monkeypatch):
    # `szlab.enumeration.Pool` is the one name every pool is built through.
    pools = []
    real = enumeration.Pool
    monkeypatch.setattr(enumeration, "Pool", lambda **kw: pools.append(kw) or real(**kw))
    stream = tmp_path / "mixed.g6"
    stream.write_text("\n".join(["Cr", to_graph6(complete_bipartite(2, 3)), "C~"]) + "\n")
    code, out, _ = run_cli(capsys, "verify", "--file", str(stream), "--workers", "2")
    assert code == 0 and pools == [{"processes": 2}]
    assert [(r["n"], r["graphs_checked"], r["rejected"]) for r in json.loads(out)["reports"]] == [
        (4, 1, 1),
        (5, 1, 0),
    ]


def test_verify_leaves_stdin_open(capsys, monkeypatch):
    stdin = io.StringIO("Cr\nCr\n")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and not stdin.closed
    assert [r["graphs_checked"] for r in json.loads(out)["reports"]] == [2]
    # The stream is drained: a second run reads nothing, and must not fail on a closed file.
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and not stdin.closed
    assert json.loads(out)["reports"] == []
