"""Command-line interface: files written, stdout contracts, exit codes."""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zfnets import zero_forcing
from zfnets.cli import main
from zfnets.constructions import (
    FAMILIES,
    build_g1,
    build_g1_bar,
    build_g2_bar,
    default_g3_diameter,
)
from zfnets.graph import Graph, from_edge_list_text, to_edge_list_text
from zfnets.robustness import spectrum

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def write_graph(tmp_path, graph, name="g.edges"):
    path = tmp_path / name
    path.write_text(to_edge_list_text(graph))
    return path


def run_child(code: str, *argv: str, cwd=None) -> subprocess.CompletedProcess:
    """`python -c code argv...` in a fresh interpreter that imports zfnets from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_construct_writes_all_formats(tmp_path, capsys):
    out = tmp_path / "net"
    code, text = run(
        capsys,
        "construct", "--family", "g1bar", "--nodes", "12", "--leaders", "3",
        "--diameter", "4", "--out", str(out), "--format", "all",
    )
    assert code == 0
    assert "family=g1bar" in text and "edges=30" in text and "diameter=4" in text
    edges = (tmp_path / "net.edges").read_text()
    parsed = from_edge_list_text(edges)
    assert parsed == build_g1_bar(12, 3, 4).graph
    dot = (tmp_path / "net.dot").read_text()
    assert dot.startswith("graph ") and "0 -- 3" in dot
    layout = (tmp_path / "net.layout").read_text()
    assert "0 L1" in layout and "11 u_3,3" in layout


def test_construct_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "construct", "--family", "g3bar", "--nodes", "12", "--leaders", "3",
        "--diameter", "3", "--out", str(a), "--format", "all")
    run(capsys, "construct", "--family", "g3bar", "--nodes", "12", "--leaders", "3",
        "--diameter", "3", "--out", str(b), "--format", "all")
    for ext in (".edges", ".dot", ".layout"):
        assert (tmp_path / f"a{ext}").read_bytes() == (tmp_path / f"b{ext}").read_bytes()


# sha256 of the .edges, .layout and .dot texts, in that order, over
# N in (60, 120, 240) x (2, 4, 6) leaders: any node id, edge or layout role
# that moves changes the digest.  Only g3bar is given --diameter, its range
# midpoint; the digests were taken with --diameter N/leaders for g1 and
# g1bar and 2 for g2bar, so they also pin the d that construct fills in.
CONSTRUCT_DIGESTS = {
    "g1": "8b7bcada414cf3a07a76cbfd1db44b28a4d98ab3bab00458ed8c59cf107f09eb",
    "g1bar": "3d7f901af7140025c80e33112989d717b826bef1a8d4880fa094f5e082ed798d",
    "g2bar": "186be7597e8b81afae99bef59352acd88ebc352c38c0bc01c6b65f2b9aaa3734",
    "g3bar": "a83a4702faa0afd9c550bbca20c3ea659171ee5419282b5e10477302d2f007d7",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_construct_files_match_pinned_digests(tmp_path, capsys, family):
    digest = hashlib.sha256()
    for n in (60, 120, 240):
        for k in (2, 4, 6):
            prefix = tmp_path / f"{family}_{n}_{k}"
            diameter = ["--diameter", str(default_g3_diameter(n, k))] if family == "g3bar" else []
            code, _ = run(capsys, "construct", "--family", family, "--nodes", str(n),
                          "--leaders", str(k), *diameter, "--out", str(prefix))
            assert code == 0
            for ext in (".edges", ".layout", ".dot"):
                digest.update((tmp_path / f"{prefix.name}{ext}").read_bytes())
    assert digest.hexdigest() == CONSTRUCT_DIGESTS[family]


def test_construct_format_choices(tmp_path, capsys):
    out = tmp_path / "only"
    code, _ = run(capsys, "construct", "--family", "g2bar", "--nodes", "8",
                  "--leaders", "2", "--out", str(out), "--format", "dot")
    assert code == 0
    assert (tmp_path / "only.dot").exists()
    assert not (tmp_path / "only.edges").exists()


def test_construct_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("family = g2bar\nn = 10\nnl = 2\n")
    out = tmp_path / "net"
    code, text = run(capsys, "construct", "--config", str(cfg), "--out", str(out))
    assert code == 0 and "family=g2bar" in text and "n=10" in text


def test_construct_config_with_a_repeated_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("family = g1bar\nn = 12\nnl = 3\nd = 4\nN = 16\n")
    out = tmp_path / "net"
    code = main(["construct", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        "error: infeasible spec: config key 'n' is set twice (lines 2 and 5)\n")
    assert not (tmp_path / "net.edges").exists()


def test_construct_config_with_a_non_integer_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("family = g1bar\nn = 12\nnl = 3\nd = four\n")
    code = main(["construct", "--config", str(cfg), "--out", str(tmp_path / "net")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: infeasible spec: config line 4: d must be an integer, got 'four'\n")
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("flags, named", [
    (["--family", "g2bar", "--nodes", "40", "--leaders", "5"], "--family, --nodes, --leaders"),
    (["--diameter", "4"], "--diameter"),
], ids=["family-nodes-leaders", "diameter"])
def test_construct_config_excludes_the_spec_flags(tmp_path, capsys, flags, named):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("family = g1bar\nn = 12\nnl = 3\nd = 4\n")
    code = main(["construct", "--config", str(cfg), *flags, "--out", str(tmp_path / "net")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: --config cannot be combined with {named}\n"
    assert list(tmp_path.iterdir()) == [cfg]


def test_construct_self_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    diameter = Graph.diameter
    monkeypatch.setattr(Graph, "diameter", lambda g: diameter(g) + 1)
    out = tmp_path / "net"
    code = main(["construct", "--family", "g3bar", "--nodes", "12", "--leaders", "3",
                 "--diameter", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("error: construction self-check failed: "
                            "built g3bar graph has diameter 4, expected 3\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_construct_measures_the_diameter_once(tmp_path, capsys, monkeypatch):
    calls = []
    diameter = Graph.diameter
    monkeypatch.setattr(Graph, "diameter", lambda g: calls.append(g.n) or diameter(g))
    code, text = run(capsys, "construct", "--family", "g3bar", "--nodes", "24", "--leaders", "3",
                     "--diameter", "5", "--out", str(tmp_path / "net"))
    assert code == 0 and calls == [24]
    assert text.endswith("family=g3bar n=24 leaders=3 edges=66 diameter=5\n")


def test_construct_infeasible_exits_2(tmp_path, capsys):
    code = main(["construct", "--family", "g1bar", "--nodes", "13",
                 "--leaders", "3", "--diameter", "4", "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: infeasible spec: family g1bar requires n = n_leaders * d "
        "(got n=13, n_leaders=3, d=4, product 12)\n")
    assert not (tmp_path / "x.edges").exists()


def test_construct_names_the_filled_in_d_in_its_default_file_names(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZFNETS_OUT_DIR", str(tmp_path))
    code, text = run(capsys, "construct", "--family", "g1", "--nodes", "12", "--leaders", "3")
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g1_n12_nl3_d4.dot", "g1_n12_nl3_d4.edges", "g1_n12_nl3_d4.layout"]
    # d is g1's layer count; its measured diameter is 2d - 1
    assert text.endswith("family=g1 n=12 leaders=3 edges=12 diameter=7\n")


def test_construct_accepts_a_family_alias(tmp_path, capsys, monkeypatch):
    # ConstructionSpec judges the name, as it does for --config and sweep --families
    monkeypatch.setenv("ZFNETS_OUT_DIR", str(tmp_path))
    code, text = run(capsys, "construct", "--family", "g2", "--nodes", "12", "--leaders", "3")
    assert code == 0
    assert text.splitlines()[-1] == "family=g2bar n=12 leaders=3 edges=30 diameter=2"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "g2bar_n12_nl3_d2.dot", "g2bar_n12_nl3_d2.edges", "g2bar_n12_nl3_d2.layout"]


def test_construct_g3bar_without_diameter_exits_2(tmp_path, capsys):
    code = main(["construct", "--family", "g3bar", "--nodes", "240", "--leaders", "4",
                 "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: infeasible spec: family g3bar requires a diameter d\n"
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, error", [
    (["construct", "--family", "g1bar", "--nodes", "12"], "construct needs --leaders (or --config)"),
    (["construct", "--family", "g1bar", "--nodes", "12", "--leaders", "3", "--diameter", "0"],
     "infeasible spec: diameter must be positive, got d=0"),
    (["construct", "--family", "g9", "--nodes", "12", "--leaders", "3"],
     "infeasible spec: unknown family 'g9'; expected one of g1, g1bar, g2bar, g3bar"),
    (["spectrum"], "need at least one node"),
], ids=["no-leaders", "zero-diameter", "unknown-family", "empty-graph"])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, capsys, argv, error):
    empty = tmp_path / "empty.edges"
    empty.write_text("")
    where = ["--out", str(tmp_path / "x")] if argv[0] == "construct" else ["--graph", str(empty)]
    code = main(argv + where)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert list(tmp_path.iterdir()) == [empty]


def test_construct_honors_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZFNETS_OUT_DIR", str(tmp_path))
    code, _ = run(capsys, "construct", "--family", "g2bar", "--nodes", "8",
                  "--leaders", "2", "--format", "edgelist")
    assert code == 0
    assert (tmp_path / "g2bar_n8_nl2_d2.edges").exists()


def test_verify_passing_network(tmp_path, capsys):
    path = write_graph(tmp_path, build_g1_bar(12, 3, 4).graph)
    code, text = run(capsys, "verify", "--graph", str(path), "--leaders", "0,1,2")
    assert code == 0
    assert "zfs: yes" in text
    assert "unique-process: yes" in text
    assert "maximal: yes" in text


def test_verify_runs_the_forcing_engine_once(tmp_path, capsys, monkeypatch):
    # At the edge bound the ZFS, uniqueness and maximality verdicts share one run.
    calls = []
    engine = zero_forcing._run
    monkeypatch.setattr(zero_forcing, "_run", lambda g, black: calls.append(g) or engine(g, black))
    path = write_graph(tmp_path, build_g1_bar(12, 3, 4).graph)
    code, _ = run(capsys, "verify", "--graph", str(path), "--leaders", "0,1,2")
    assert code == 0 and len(calls) == 1


def test_verify_non_forcing_leaders_exit_3(tmp_path, capsys):
    path = write_graph(tmp_path, from_edge_list_text("0 1\n1 2\n"))
    code, text = run(capsys, "verify", "--graph", str(path), "--leaders", "1")
    assert code == 3
    assert "zfs: no" in text
    assert "maximal: n/a" in text


def test_verify_names_the_edge_list_line_at_fault(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("# n=4\n0 1\n\n1 7\n")
    code = main(["verify", "--graph", str(path), "--leaders", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: line 4: vertex 7 out of range for graph on 4 nodes\n"
    assert captured.out == ""


@pytest.mark.parametrize("header", ["# n = 4", "# N=4"])
def test_verify_reads_a_header_with_spaces_or_a_capital_n(tmp_path, capsys, header):
    # 4 nodes, 2 of them isolated, so leader 0 cannot force them
    path = tmp_path / "g.edges"
    path.write_text(f"{header}\n0 1\n")
    code, out = run(capsys, "verify", "--graph", str(path), "--leaders", "0")
    assert code == 3
    assert out.splitlines()[:1] == ["zfs: no"]


def test_verify_rejects_an_edge_given_twice(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n2 1\n")
    code = main(["verify", "--graph", str(path), "--leaders", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: line 3: repeated edge 2 1 (first on line 2)\n"
    assert captured.out == ""


def test_graph_commands_take_the_node_count_from_the_header(tmp_path, capsys):
    # a 10-node g1bar whose header claims 12 nodes: the two extra nodes are
    # isolated, so the leaders cannot force them
    text = to_edge_list_text(build_g1_bar(10, 2, 5).graph)
    path = tmp_path / "g.edges"
    path.write_text(text.replace("# n=10\n", "# n=12\n", 1))
    code, out = run(capsys, "verify", "--graph", str(path), "--leaders", "0,1")
    assert code == 3
    assert out.splitlines()[:1] == ["zfs: no"]
    for argv in (["verify", "--leaders", "0,1"], ["spectrum"], ["oracle", "--leaders", "0,1"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--graph", str(path), "--nodes", "10"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --nodes 10" in captured.err


def test_verify_reports_missing_edges(tmp_path, capsys):
    # the bare layered skeleton forces fine but admits many more edges
    path = write_graph(tmp_path, build_g1(12, 3, 4).graph)
    code, text = run(capsys, "verify", "--graph", str(path), "--leaders", "0,1,2")
    assert code == 3
    assert "zfs: yes" in text and "maximal: no" in text
    assert "violation:" in text


def test_spectrum_matches_library(tmp_path, capsys):
    g = build_g2_bar(12, 3).graph
    path = write_graph(tmp_path, g)
    code, text = run(capsys, "spectrum", "--graph", str(path), "--eigenvalues")
    assert code == 0
    rep = spectrum(g)
    assert f"lambda2: {rep.lambda2:.9g}" in text
    assert f"kirchhoff: {rep.kirchhoff:.9g}" in text
    assert "eigenvalues:" in text and "n: 12" in text and "edges: 30" in text


def test_spectrum_solver_failure_exits_4(tmp_path, capsys, monkeypatch):
    def fail(_a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    path = write_graph(tmp_path, build_g2_bar(12, 3).graph)
    code = main(["spectrum", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 4 and "lambda2" not in captured.out
    assert captured.err == ("error: did not converge: "
                            "Laplacian eigensolver failed: Eigenvalues did not converge\n")


def test_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, text = run(capsys, "sweep", "--nodes", "12", "--leaders", "2-4",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,N,NL,D,edges,lambda2,kirchhoff"
    # nl=4 divides 12; only the g1bar nl=... none are infeasible except none
    rows = [ln.split(",") for ln in lines[1:]]
    assert all(r[1] == "12" for r in rows)
    assert {r[0] for r in rows} == {"g1bar", "g2bar", "g3bar"}
    # infeasible notes (none for 2-4 at N=12, all divide); now check one that skips
    code2, text2 = run(capsys, "sweep", "--nodes", "12", "--leaders", "5",
                       "--out", str(tmp_path / "t2.csv"))
    assert code2 == 0 and "skip" in text2


def test_sweep_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ZFNETS_OUT_DIR", str(tmp_path))
    code, _ = run(capsys, "sweep", "--nodes", "12", "--leaders", "2,3")
    assert code == 0
    assert (tmp_path / "sweep_n12.csv").exists()


def test_sweep_writes_one_row_per_repeated_family(tmp_path, capsys):
    for families, name in (("g1bar,g1_bar,G1BAR", "repeated.csv"), ("g1bar", "once.csv")):
        code, _ = run(capsys, "sweep", "--nodes", "12", "--leaders", "3",
                      "--families", families, "--out", str(tmp_path / name))
        assert code == 0
    text = (tmp_path / "repeated.csv").read_text()
    assert text == (tmp_path / "once.csv").read_text()
    assert len(text.splitlines()) == 2


def test_sweep_g3_diameter_fixes_the_g3bar_row(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, _ = run(capsys, "sweep", "--nodes", "12", "--leaders", "3", "--g3-diameter", "3",
                  "--out", str(out))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[:4] for r in rows if r[0] == "g3bar"] == [["g3bar", "12", "3", "3"]]


def test_sweep_skips_an_infeasible_g3_diameter(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, text = run(capsys, "sweep", "--nodes", "12", "--leaders", "3", "--g3-diameter", "9",
                     "--out", str(out))
    assert code == 0
    assert text.startswith("note: skip family=g3bar n=12 nl=3: ")
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["g1bar", "g2bar"]


def test_sweep_g3_diameter_needs_g3bar_in_families(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--nodes", "12", "--families", "g1bar", "--leaders", "3",
                 "--g3-diameter", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --g3-diameter needs g3bar in --families\n"
    assert not out.exists()


@pytest.mark.parametrize("leaders", ["2-", "1-3-5", "x"])
def test_sweep_leader_parse_errors_name_the_input(tmp_path, capsys, leaders):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--nodes", "12", f"--leaders={leaders}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (
        f"error: expected leader counts such as 2-10 or 2,3,5, got '{leaders}'\n")
    assert not out.exists()


@pytest.mark.parametrize("nodes", ["0", "-5"])
def test_sweep_rejects_non_positive_nodes(tmp_path, capsys, nodes):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--nodes", nodes, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --nodes must be at least 1, got {nodes}\n"
    assert not out.exists()


@pytest.mark.parametrize("leaders, smallest", [("0", "0"), ("-3,2", "-3"), ("0-4", "0")])
def test_sweep_rejects_non_positive_leaders(tmp_path, capsys, leaders, smallest):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--nodes", "12", f"--leaders={leaders}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --leaders must be at least 1, got {smallest}\n"
    assert not out.exists()


def test_sweep_cuts_leader_ranges_at_nodes(tmp_path, capsys):
    # the default --leaders 2-10 at --nodes 8 keeps its feasible rows
    code, text = run(capsys, "sweep", "--nodes", "8", "--out", str(tmp_path / "default.csv"))
    assert code == 0 and "nl=9" not in text and "nl=10" not in text
    code, _ = run(capsys, "sweep", "--nodes", "8", "--leaders", "2-8",
                  "--out", str(tmp_path / "cut.csv"))
    assert code == 0
    rows = (tmp_path / "default.csv").read_text()
    assert rows == (tmp_path / "cut.csv").read_text()
    assert [tuple(r.split(",")[:3]) for r in rows.splitlines()[1:] if r.startswith("g2bar")] \
        == [("g2bar", "8", str(k)) for k in range(2, 7)]
    # a range far past --nodes is cut before it is expanded
    code, _ = run(capsys, "sweep", "--nodes", "12", "--leaders", "2-1000000000",
                  "--out", str(tmp_path / "wide.csv"))
    assert code == 0
    code, _ = run(capsys, "sweep", "--nodes", "12", "--leaders", "2-12",
                  "--out", str(tmp_path / "twelve.csv"))
    assert code == 0
    assert (tmp_path / "wide.csv").read_text() == (tmp_path / "twelve.csv").read_text()


def test_sweep_rejects_a_leader_count_above_nodes(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["sweep", "--nodes", "12", "--leaders", "2,13", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --leaders must be at most --nodes (12), got 13\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, notes, error", [
    # a range that starts above --nodes is rejected before it is expanded
    (["--nodes", "12", "--leaders", "13-14"], 0,
     "--leaders must be at most --nodes (12), got 13-14"),
    (["--families", "g1", "--nodes", "7", "--leaders", "2"], 1,
     "no feasible family and leader count at --nodes 7"),
    # an empty family list is named, not blamed on the leader counts
    (["--families", "", "--nodes", "12", "--leaders", "3"], 0, "no values in ''"),
    (["--families", " , ", "--nodes", "12", "--leaders", "3"], 0, "no values in ' , '"),
    (["--nodes", "12", "--leaders", "5-3"], 0, "empty range '5-3'"),
    (["--nodes", "12", "--leaders", ","], 0, "no values in ','"),
], ids=["13-14", "g1-7", "no-families", "blank-families", "empty-range", "no-leaders"])
def test_sweep_without_feasible_rows_writes_no_csv(tmp_path, capsys, argv, notes, error):
    out = tmp_path / "table.csv"
    code = main(["sweep", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == notes and all(line.startswith("note: skip family=") for line in lines)
    assert captured.err == f"error: {error}\n"
    assert not out.exists()


def test_grammar_run_matches_construction(tmp_path, capsys):
    out = tmp_path / "run"
    frames = tmp_path / "frames"
    code, text = run(
        capsys,
        "grammar", "--rules", "r1", "--nodes", "12", "--leaders", "3",
        "--diameter", "4", "--seed", "7", "--out", str(out),
        "--frames", str(frames),
    )
    assert code == 0
    assert "steps: 34" in text and "edges: 30" in text
    assert "matches construction: yes" in text
    trace = (tmp_path / "run.trace").read_text()
    assert trace.splitlines()[0].startswith("STEP 1 RULE ")
    assert (tmp_path / "run.dot").exists()
    frame_files = sorted(p.name for p in frames.iterdir())
    assert frame_files[0] == "step_0000.dot"
    assert len(frame_files) == 35  # initial frame plus one per step


def test_grammar_r2_matches_construction(tmp_path, capsys):
    code, text = run(capsys, "grammar", "--rules", "r2", "--nodes", "12",
                     "--leaders", "3", "--out", str(tmp_path / "a"))
    assert code == 0 and "matches construction: yes" in text


def test_grammar_pi2_priority(tmp_path, capsys):
    code, text = run(capsys, "grammar", "--rules", "r1", "--nodes", "12",
                     "--leaders", "3", "--diameter", "4", "--prefer-pi2",
                     "--out", str(tmp_path / "p"))
    assert code == 0 and "matches construction: yes" in text


def test_grammar_r1_requires_consistent_shape(tmp_path, capsys):
    code, _ = run(capsys, "grammar", "--rules", "r1", "--nodes", "12",
                  "--leaders", "3", "--diameter", "5",
                  "--out", str(tmp_path / "x"))
    assert code == 2


@pytest.mark.parametrize("rules, d", [("r1", "4"), ("r2", "2")])
def test_grammar_without_diameter_writes_the_trace_of_its_fixed_d(tmp_path, capsys, rules, d):
    common = ["grammar", "--rules", rules, "--nodes", "12", "--leaders", "3", "--seed", "7"]
    assert main(common + ["--diameter", d, "--out", str(tmp_path / "given")]) == 0
    given = capsys.readouterr()
    assert main(common + ["--out", str(tmp_path / "filled")]) == 0
    filled = capsys.readouterr()
    assert filled.err == given.err == ""
    assert filled.out == given.out.replace("given", "filled")
    for ext in (".trace", ".dot"):
        assert (tmp_path / f"filled{ext}").read_bytes() == (tmp_path / f"given{ext}").read_bytes()


def test_grammar_r1_with_one_layer_builds_the_leader_clique(tmp_path, capsys):
    # n = k fills in d = 1: no chain has a layer to grow, and g1bar is K4
    code = main(["grammar", "--rules", "r1", "--nodes", "4", "--leaders", "4",
                 "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    # 3 recruitments (r0), the last seed turning leader (r1), 3 clique edges (r5)
    assert captured.out.endswith("steps: 7\nedges: 6\nmatches construction: yes\n")


def test_oracle_summary_and_csv(tmp_path, capsys):
    path = write_graph(tmp_path, build_g2_bar(10, 2).graph)
    out = tmp_path / "trials.csv"
    code, text = run(capsys, "oracle", "--graph", str(path), "--leaders", "0,1",
                     "--trials", "20", "--seed", "3", "--out", str(out))
    assert code == 0
    assert "20" in text and "controllable" in text
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "trial,seed,rank,verdict"
    assert len(lines) == 21


def test_no_arguments_shows_usage(capsys):
    code = main([])
    captured = capsys.readouterr()
    assert code == 2
    assert "usage" in (captured.out + captured.err).lower()


def test_leader_list_parsing_errors(tmp_path, capsys):
    path = write_graph(tmp_path, build_g2_bar(8, 2).graph)
    code, _ = run(capsys, "verify", "--graph", str(path), "--leaders", "0,notanid")
    assert code == 2


def test_oracle_exact_verdicts_without_tol(tmp_path, capsys):
    # an isolated follower is never reachable; a path from its end always is
    for text, expect in (("# n=3\n0 1\n", "0/5 trials controllable (5 uncontrollable, 0 indeterminate)"),
                         ("0 1\n1 2\n", "5/5 trials controllable (0 uncontrollable, 0 indeterminate)")):
        path = tmp_path / "g.edges"
        path.write_text(text)
        code, out = run(capsys, "oracle", "--graph", str(path), "--leaders", "0", "--trials", "5")
        assert code == 0 and out == expect + "\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "0.1", "100"])
def test_oracle_rejects_tol_outside_the_band(tmp_path, capsys, tol):
    # the rank is exact, so there is no tolerance band left: any --tol is a usage error
    for text, leaders in (("# n=3\n0 1\n", "0"), ("0 1\n1 2\n", "0")):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--graph", str(path), "--leaders", leaders,
                  "--trials", "5", "--tol", tol])
        assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_oracle_rejects_graphs_beyond_the_exact_limit(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text("# n=8193\n0 1\n")
    code, out = run(capsys, "oracle", "--graph", str(path), "--leaders", "0", "--trials", "1")
    assert code == 2 and out == ""


def test_oracle_rejects_a_trial_count_too_large_to_allocate(tmp_path, capsys):
    # the seed array of 10^15 trials (7.11 PiB) is refused before any page is touched
    path = write_graph(tmp_path, build_g1_bar(12, 3, 4).graph)
    code = main(["oracle", "--graph", str(path), "--leaders", "0",
                 "--trials", "1000000000000000"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: Unable to allocate")


def test_cli_import_loads_no_scipy():
    code = ("import sys, zfnets.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = run_child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_grammar_r2_checks_the_diameter(tmp_path, capsys):
    code, _ = run(capsys, "grammar", "--rules", "r2", "--nodes", "12",
                  "--leaders", "3", "--diameter", "5", "--out", str(tmp_path / "x"))
    assert code == 2
    assert not (tmp_path / "x.trace").exists()
    code, text = run(capsys, "grammar", "--rules", "r2", "--nodes", "12",
                     "--leaders", "3", "--diameter", "2", "--out", str(tmp_path / "y"))
    assert code == 0 and "matches construction: yes" in text


def test_oracle_out_creates_missing_directories(tmp_path, capsys):
    path = write_graph(tmp_path, build_g2_bar(10, 2).graph)
    out = tmp_path / "new" / "dir" / "trials.csv"
    code, text = run(capsys, "oracle", "--graph", str(path), "--leaders", "0,1",
                     "--trials", "4", "--out", str(out))
    assert code == 0 and text.endswith(f"wrote {out}\n")
    assert out.read_text().splitlines()[0] == "trial,seed,rank,verdict"


def test_grammar_rejects_a_negative_seed(tmp_path, capsys):
    code = main(["grammar", "--rules", "r1", "--nodes", "12", "--leaders", "3",
                 "--diameter", "4", "--seed", "-1", "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert not (tmp_path / "x.trace").exists()


def test_oracle_rejects_a_negative_seed(tmp_path, capsys):
    path = write_graph(tmp_path, build_g1_bar(12, 3, 4).graph)
    out = tmp_path / "trials.csv"
    code = main(["oracle", "--graph", str(path), "--leaders", "0,1,2", "--trials", "3",
                 "--seed", "-1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --seed must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "g1bar", "--nodes", "24", "--leaders", "3",
     "--diameter", "8", "--out", "g"],
    ["verify", "--graph", "g.edges", "--leaders", "0,1,2"],
    ["grammar", "--rules", "r1", "--nodes", "24", "--leaders", "3", "--diameter", "8",
     "--out", "r1"],
    ["grammar", "--rules", "r2", "--nodes", "24", "--leaders", "3", "--out", "r2"],
], ids=["construct", "verify", "grammar-r1", "grammar-r2"])
def test_commands_without_linear_algebra_import_no_numpy(tmp_path, argv):
    write_graph(tmp_path, build_g1_bar(24, 3, 8).graph)
    code = ("import sys, zfnets.cli; code = zfnets.cli.main(sys.argv[1:]); "
            "print('numpy' in sys.modules, code)")
    proc = run_child(code, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


@pytest.mark.parametrize("module, loaded", [
    ("zfnets", []),
    # the forcing word and the edge bound live here, so the certifier needs no builder
    ("zfnets.zero_forcing", ["zfnets.graph", "zfnets.zero_forcing"]),
    # grammar, robustness and ssc load inside the subcommands that run them
    ("zfnets.cli", ["zfnets.cli", "zfnets.constructions", "zfnets.graph", "zfnets.zero_forcing"]),
    # the grammar subcommand's engine: its records are tuples, not dataclasses
    ("zfnets.grammar", ["zfnets.constructions", "zfnets.grammar", "zfnets.graph",
                        "zfnets.zero_forcing"]),
], ids=["zfnets", "zfnets.zero_forcing", "zfnets.cli", "zfnets.grammar"])
def test_package_import_is_lazy(module, loaded):
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.startswith('zfnets.')), "
            "'numpy' in sys.modules, 'dataclasses' in sys.modules)")
    proc = run_child(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{loaded} False False\n"
