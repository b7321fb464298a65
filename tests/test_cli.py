import dataclasses
import json
import math
import tracemalloc

import pytest

from rsd import cli, protocol, radio
from rsd.cli import MAX_BETA, main
from rsd.generators import random_tree, star
from rsd.graphs import Graph, parse_graph
from rsd.history_lab import pattern_bound
from rsd.labels import Tag, encode_label
from rsd.protocol import SizeDiscoveryNode, run_protocol


def run_cli(*args):
    return main(list(args))


def read(path):
    return path.read_text(encoding="utf-8")


def test_gen_star(tmp_path):
    out = tmp_path / "star.g"
    assert run_cli("gen", "--kind", "star", "--delta", "4", "--out", str(out)) == 0
    g = parse_graph(read(out))
    assert g.n == 5 and g.max_degree() == 4


def test_gen_tree_deterministic(tmp_path):
    a, b = tmp_path / "a.g", tmp_path / "b.g"
    for out in (a, b):
        assert (
            run_cli(
                "gen", "--kind", "tree", "--n", "50", "--delta", "8", "--seed", "7",
                "--out", str(out),
            )
            == 0
        )
    assert read(a) == read(b)
    assert parse_graph(read(a)).n == 50


def test_gen_family(tmp_path):
    out = tmp_path / "fam.g"
    assert (
        run_cli("gen", "--kind", "family", "--delta", "4", "--index", "3", "--out", str(out))
        == 0
    )
    assert parse_graph(read(out)).n == 8


def test_gen_family_bad_index(tmp_path, capsys):
    code = run_cli("gen", "--kind", "family", "--delta", "4", "--index", "9")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_gen_family_needs_an_index(capsys):
    assert run_cli("gen", "--kind", "family", "--delta", "4") == 2
    assert "--index is required for --kind family" in capsys.readouterr().err


def test_gen_infeasible_tree(capsys):
    assert run_cli("gen", "--kind", "tree", "--n", "10", "--delta", "1") == 2


def test_oracle_diamond(tmp_path, capsys):
    g = tmp_path / "d.g"
    g.write_text("4 4\n0 1\n0 2\n1 3\n2 3\n")
    assert run_cli("oracle", str(g)) == 0
    out = capsys.readouterr().out
    assert "n 4" in out
    assert "US(1): 1" in out
    assert "0:4" in out  # the root's weight is the size


def test_oracle_path3(tmp_path, capsys):
    g = tmp_path / "p.g"
    g.write_text("3 2\n0 1\n1 2\n")
    assert run_cli("oracle", str(g)) == 0
    out = capsys.readouterr().out
    assert "h 1" in out and "n 3" in out


def test_label_star(tmp_path, capsys):
    g = tmp_path / "s.g"
    g.write_text("5 4\n0 1\n0 2\n0 3\n0 4\n")
    labels = tmp_path / "labels.txt"
    assert run_cli("label", str(g), "--out", str(labels)) == 0
    lines = read(labels).strip().split("\n")
    assert len(lines) == 5
    assert "bound" in capsys.readouterr().out


def test_label_rejects_single_node(tmp_path):
    g = tmp_path / "one.g"
    g.write_text("1 0\n")
    assert run_cli("label", str(g)) == 2


def test_run_diamond(tmp_path, capsys):
    g = tmp_path / "d.g"
    g.write_text("4 4\n0 1\n0 2\n1 3\n2 3\n")
    report_path = tmp_path / "report.json"
    assert run_cli("run", str(g), "--report", str(report_path)) == 0
    report = json.loads(read(report_path))
    assert report["n"] == 4
    assert report["outputs_ok"] is True
    assert report["rounds_used"] <= report["bound_Dn2logDelta"]
    assert set(report) == {
        "n", "delta", "h", "rounds_used", "max_label_bits", "outputs_ok",
        "bound_Dn2logDelta",
    }


def test_run_emits_trace(tmp_path):
    g = tmp_path / "k2.g"
    g.write_text("2 1\n0 1\n")
    trace = tmp_path / "trace.txt"
    assert run_cli("run", str(g), "--trace", str(trace)) == 0
    lines = read(trace).strip().split("\n")
    first = lines[0].split()
    assert first[0] == "1" and first[1] == "0"
    # every line is round node action observation
    assert all(len(line.split()) == 4 for line in lines)


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1)],
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (4, 6)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 2)],
    ],
    ids=["K2", "tree", "cycles"],
)
def test_run_trace_matches_reference_engine(tmp_path, edges):
    g = Graph.from_edges(1 + max(max(e) for e in edges), edges)
    graph_file, trace = tmp_path / "g.g", tmp_path / "trace.txt"
    graph_file.write_text(g.to_text())
    assert run_cli("run", str(graph_file), "--trace", str(trace)) == 0
    res = run_protocol(g)
    nodes = {v: SizeDiscoveryNode(res.scheme.labels[v], v) for v in range(g.n)}
    assert read(trace) == radio.run(g, nodes, res.round_cap)[0].format_text()


def test_run_single_node_usage_error(tmp_path):
    g = tmp_path / "one.g"
    g.write_text("1 0\n")
    assert run_cli("run", str(g)) == 2


@pytest.mark.parametrize("command", ["oracle", "label", "run"])
def test_single_node_graph_is_refused_on_one_line(tmp_path, capsys, command):
    g = tmp_path / "one.g"
    g.write_text("1 0\n")
    assert run_cli(command, str(g)) == 2
    assert capsys.readouterr() == (
        "", "error: the graph needs n >= 2 nodes so the root has a neighbor, got n = 1\n"
    )


def test_gen_refuses_negative_extra_edges(capsys):
    args = ("gen", "--kind", "graph", "--n", "10", "--delta", "4", "--extra")
    assert run_cli(*args, "-3") == 2
    assert capsys.readouterr() == ("", "error: extra edges must be >= 0, got -3\n")
    assert run_cli(*args, "0") == 0
    assert capsys.readouterr().out.startswith("10 9\n")


def test_run_refuses_a_sparse_graph_file(tmp_path, capsys):
    g = tmp_path / "sparse.g"
    g.write_text("3000000 0")
    assert run_cli("run", str(g)) == 2
    assert capsys.readouterr() == ("", "error: graph is not connected\n")


def test_run_malformed_graph(tmp_path, capsys):
    g = tmp_path / "bad.g"
    g.write_text("3 2\n0 1\n1 1\n")
    assert run_cli("run", str(g)) == 2
    assert "self-loop" in capsys.readouterr().err


def test_run_report_byte_stable(tmp_path, capsys):
    g = tmp_path / "s.g"
    g.write_text("4 3\n0 1\n0 2\n0 3\n")
    assert run_cli("run", str(g)) == 0
    first = capsys.readouterr().out
    assert run_cli("run", str(g)) == 0
    assert capsys.readouterr().out == first


def test_lowerbound_patterns(capsys):
    assert run_cli("lowerbound", "patterns", "--beta", "1") == 0
    assert capsys.readouterr().out.strip() == "104976"


def test_lowerbound_patterns_beta_guard(capsys):
    assert run_cli("lowerbound", "patterns", "--beta", "65") == 2
    capsys.readouterr()
    assert run_cli("lowerbound", "patterns", "--beta", "-1") == 2
    assert capsys.readouterr().err == "error: beta must be >= 0\n"


def test_lowerbound_beta_cap_is_the_printable_limit(capsys):
    assert run_cli("lowerbound", "patterns", "--beta", str(MAX_BETA)) == 0
    assert capsys.readouterr().out.strip() == str(pattern_bound(MAX_BETA))
    assert run_cli("lowerbound", "crossover", "--beta", str(MAX_BETA), "--delta", "9") == 0
    assert json.loads(capsys.readouterr().out)["holds"] is False
    for mode in (["patterns"], ["crossover", "--delta", "9"]):
        assert run_cli("lowerbound", *mode, "--beta", str(MAX_BETA + 1)) == 2
        assert "exceeds the configured maximum" in capsys.readouterr().err
    # Python's default limit on int-to-str conversion
    assert math.floor(math.log10(pattern_bound(MAX_BETA))) + 1 <= 4300


def test_lowerbound_crossover(capsys):
    assert run_cli("lowerbound", "crossover", "--beta", "0", "--delta", "1000") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bound"] == 324 and report["holds"] is True


@pytest.mark.parametrize("delta", ["-5", "0", "1"])
def test_lowerbound_crossover_refuses_a_degree_without_a_family(delta, capsys):
    assert run_cli("lowerbound", "crossover", "--beta", "0", "--delta", delta) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: the family needs delta >= 2, got {delta}" in captured.err


def test_lowerbound_lemmas(capsys):
    code = run_cli(
        "lowerbound", "lemmas", "--delta", "4", "--rounds", "30", "--trials", "5",
        "--seed", "1",
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == []
    assert report["delta"] == 4 and report["trials"] == 5 and report["rounds"] == 30


@pytest.mark.parametrize(
    "args",
    [("--rounds", "-5", "--trials", "3"), ("--trials", "-2"), ("--trials", "0")],
    ids=["negative-rounds", "negative-trials", "zero-trials"],
)
def test_lowerbound_lemmas_refuses_an_empty_check(args, capsys):
    assert run_cli("lowerbound", "lemmas", "--delta", "4", *args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("delta", ["2", "3"])
def test_lowerbound_lemmas_refuses_a_degree_below_four(delta, capsys):
    code = run_cli("lowerbound", "lemmas", "--delta", delta, "--rounds", "10", "--trials", "2")
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: lemma checks need delta >= 4, got {delta}" in captured.err


def test_lowerbound_lemmas_passes_beta_zero(monkeypatch):
    seen = {}

    def fake_check_lemmas(delta, **kwargs):
        seen.update(kwargs)
        return {"violations": []}

    monkeypatch.setattr(cli, "check_lemmas", fake_check_lemmas)
    assert run_cli("lowerbound", "lemmas", "--delta", "4", "--beta", "0") == 0
    assert seen["beta"] == 0


def test_gen_graph_kind(tmp_path):
    out = tmp_path / "g.g"
    assert (
        run_cli(
            "gen", "--kind", "graph", "--n", "30", "--delta", "6", "--seed", "3",
            "--extra", "12", "--out", str(out),
        )
        == 0
    )
    g = parse_graph(read(out))
    assert g.n == 30 and g.max_degree() <= 6
    assert len(g.edges) > 29


def test_run_exit_one_on_cap_exhaustion(tmp_path, monkeypatch):
    monkeypatch.setattr(protocol, "round_cap_multiplier", lambda: 1)
    g = tmp_path / "k2.g"
    g.write_text("2 1\n0 1\n")
    assert run_cli("run", str(g)) == 1


def test_run_names_the_stage_when_the_degree_tags_spell_zero(tmp_path, monkeypatch, capsys):
    # on path(5) the root (node 1) learns the degree 2 = 10 from learner 0's
    # l1 bit 1 and learner 2's bit 0; with learner 0's bit flipped in the
    # bits it boots from, the tags spell 0
    real = protocol.assign_labels

    def flipped(*args):
        scheme = real(*args)
        label = scheme.labels[0]
        assert label.l1 == Tag(1, 1)
        scheme.encoded[0] = encode_label(dataclasses.replace(label, l1=Tag(1, 0)))
        return scheme

    monkeypatch.setattr(protocol, "assign_labels", flipped)
    g = tmp_path / "path5.g"
    g.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert run_cli("run", str(g)) == 1
    err = capsys.readouterr().err
    assert err == "failure: round 2, node 1: [root_collect] degree 0 does not fit its own bit count\n"


def test_run_fails_on_a_label_that_does_not_decode(tmp_path, monkeypatch, capsys):
    # node 0's bits of path(5) get one trailing 0: the run fails before
    # round 1, naming the lowest node that holds the string
    real = protocol.assign_labels

    def padded(*args):
        scheme = real(*args)
        scheme.encoded[0] += "0"
        return scheme

    monkeypatch.setattr(protocol, "assign_labels", padded)
    g, report = tmp_path / "path5.g", tmp_path / "report.json"
    g.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    assert run_cli("run", str(g), "--report", str(report)) == 1
    out, err = capsys.readouterr()
    assert out == read(report)
    assert json.loads(out)["rounds_used"] == 0 and json.loads(out)["outputs_ok"] is False
    assert err == "failure: round 0, node 0: label does not decode: 1 trailing bits after label\n"


def _run_and_keep_result(monkeypatch, *args):
    """`rsd ARGS`, and the result of the one run `cmd_run` made."""
    results = []

    def kept(*a, **k):
        results.append(run_protocol(*a, **k))
        return results[-1]

    monkeypatch.setattr(cli, "run_protocol", kept)
    code = run_cli(*args)
    (res,) = results
    return code, res


def test_the_trace_file_of_a_completed_run_is_format_text(tmp_path, monkeypatch):
    g, trace = tmp_path / "tree.g", tmp_path / "trace.txt"
    g.write_text(random_tree(30, 4, 7).to_text())
    code, res = _run_and_keep_result(monkeypatch, "run", str(g), "--trace", str(trace))
    assert code == 0 and res.ok
    assert trace.read_bytes() == res.trace.format_text().encode()
    assert res.trace.last == res.rounds_used


def test_the_trace_file_of_a_capped_run_is_format_text(tmp_path, monkeypatch):
    # the file runs on through the silent rounds after the last transmission
    # up to the cap, as format_text does
    monkeypatch.setattr(protocol, "round_cap_multiplier", lambda: 1)
    g, trace = tmp_path / "star2.g", tmp_path / "trace.txt"
    g.write_text(star(2).to_text())
    code, res = _run_and_keep_result(monkeypatch, "run", str(g), "--trace", str(trace))
    assert code == 1 and "cap" in res.failure
    assert trace.read_bytes() == res.trace.format_text().encode()
    lines = read(trace).splitlines()
    assert res.rounds_used < res.trace.last == res.round_cap == 36
    assert len(lines) == 36 * 3 and lines[-1] == "36 2 L S"
    assert all(line.endswith(" L S") for line in lines[3 * res.rounds_used :])


def test_the_trace_file_of_a_failed_run_is_format_text(tmp_path, monkeypatch):
    real = SizeDiscoveryNode.decide

    def decide(self, r):
        if r >= 30:
            raise RuntimeError("injected fault")
        return real(self, r)

    monkeypatch.setattr(SizeDiscoveryNode, "decide", decide)
    g, trace = tmp_path / "tree.g", tmp_path / "trace.txt"
    g.write_text(random_tree(12, 4, 1).to_text())
    code, res = _run_and_keep_result(monkeypatch, "run", str(g), "--trace", str(trace))
    assert code == 1 and "injected fault" in res.failure
    assert 0 < res.trace.last < res.rounds_used
    assert trace.read_bytes() == res.trace.format_text().encode()


def test_a_trace_to_stdout_is_format_text_then_the_report(tmp_path, monkeypatch, capsys):
    tree, g = random_tree(12, 4, 1), tmp_path / "tree.g"
    g.write_text(tree.to_text())
    code, res = _run_and_keep_result(monkeypatch, "run", str(g), "--trace", "-")
    out = capsys.readouterr().out
    text = res.trace.format_text()
    assert code == 0 and text
    assert out[: len(text)] == text
    assert json.loads(out[len(text) :]) == res.report(tree)


def test_a_traced_run_does_not_hold_its_trace_text(tmp_path):
    # the file is written round by round: the traced peak stays well below
    # the file's size (about 0.2 of it; holding the joined text takes 2x)
    g, trace = tmp_path / "tree.g", tmp_path / "trace.txt"
    g.write_text(random_tree(80, 6, 30_080).to_text())
    tracemalloc.start()
    try:
        code = cli.main(["run", str(g), "--trace", str(trace)])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < trace.stat().st_size / 2


@pytest.mark.parametrize("flag", ["--trace", "--report"])
def test_an_output_that_cannot_be_written_fails_before_the_run(tmp_path, monkeypatch, capsys, flag):
    calls = []
    monkeypatch.setattr(cli, "run_protocol", lambda *a, **k: calls.append(a))
    g = tmp_path / "k2.g"
    g.write_text("2 1\n0 1\n")
    missing = tmp_path / "missing" / "out.txt"
    assert run_cli("run", str(g), flag, str(missing)) == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


@pytest.mark.parametrize("bad", ["--trace", "--report"])
@pytest.mark.parametrize("good_exists", [True, False], ids=["existing", "new"])
def test_an_output_that_cannot_be_opened_leaves_every_output_as_it_was(
    tmp_path, monkeypatch, capsys, bad, good_exists
):
    # the other output is neither emptied nor created
    calls = []
    monkeypatch.setattr(cli, "run_protocol", lambda *a, **k: calls.append(a))
    g, good, missing = tmp_path / "k2.g", tmp_path / "out.txt", tmp_path / "missing" / "out.txt"
    g.write_text("2 1\n0 1\n")
    if good_exists:
        good.write_bytes(b"kept")
    paths = {"--trace": good, "--report": good, bad: missing}
    assert run_cli("run", str(g), "--trace", str(paths["--trace"]), "--report", str(paths["--report"])) == 2
    assert calls == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    if good_exists:
        assert good.read_bytes() == b"kept"
    else:
        assert not good.exists()


@pytest.mark.parametrize(
    "spelling, exists",
    [(spelling, exists) for spelling in ("same", "dotted", "symlink") for exists in (True, False)]
    + [("hardlink", True)],
)
def test_two_outputs_on_one_file_are_refused_before_the_run(tmp_path, monkeypatch, capsys, spelling, exists):
    # the trace and the report would overwrite each other: exit 2, no
    # simulation, and the file is neither changed nor created
    calls = []
    monkeypatch.setattr(cli, "run_protocol", lambda *a, **k: calls.append(a) or run_protocol(*a, **k))
    g, out = tmp_path / "k2.g", tmp_path / "out.txt"
    g.write_text("2 1\n0 1\n")
    if exists:
        out.write_bytes(b"kept")
    other = {
        "same": out,
        "dotted": tmp_path / "." / "out.txt",
        "symlink": tmp_path / "link.txt",
        "hardlink": tmp_path / "hard.txt",
    }[spelling]
    if spelling == "symlink":
        other.symlink_to(out)
    elif spelling == "hardlink":
        other.hardlink_to(out)
    assert run_cli("run", str(g), "--trace", str(out), "--report", str(other)) == 2
    assert calls == []
    out_text, err = capsys.readouterr()
    assert out_text == ""
    assert err == f"error: two outputs name the same file: {out} and {other}\n"
    if exists:
        assert out.read_bytes() == b"kept"
    else:
        assert not out.exists()


def test_a_report_to_stdout_is_printed_once(tmp_path, capsys):
    g = tmp_path / "k2.g"
    g.write_text("2 1\n0 1\n")
    assert run_cli("run", str(g), "--report", "-") == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and json.loads(out)["outputs_ok"] is True


def test_a_run_replaces_the_outputs_that_exist(tmp_path):
    g, trace, report = tmp_path / "k2.g", tmp_path / "trace.txt", tmp_path / "report.json"
    g.write_text("2 1\n0 1\n")
    trace.write_text("x" * 100_000)
    report.write_text("x" * 100_000)
    assert run_cli("run", str(g), "--trace", str(trace), "--report", str(report)) == 0
    assert "x" not in read(trace) and json.loads(read(report))["outputs_ok"] is True


def test_run_report_counts_rounds_up_to_a_failure(tmp_path, monkeypatch):
    real = SizeDiscoveryNode.decide

    def decide(self, r):
        if r == 5:
            raise RuntimeError("injected fault")
        return real(self, r)

    monkeypatch.setattr(SizeDiscoveryNode, "decide", decide)
    g, report = tmp_path / "k2.g", tmp_path / "report.json"
    g.write_text("2 1\n0 1\n")
    assert run_cli("run", str(g), "--report", str(report)) == 1
    assert json.loads(read(report))["rounds_used"] == 5


def test_run_reports_a_fault_in_next_transmit_round(tmp_path, monkeypatch, capsys):
    # phase 1 starts on an alarm that the engine's next-transmission query fires
    def on_phase_start(self, r):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(SizeDiscoveryNode, "_on_phase_start", on_phase_start)
    g = tmp_path / "k2.g"
    g.write_text("2 1\n0 1\n")
    assert run_cli("run", str(g)) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: round ")
    assert "automaton failed in next_transmit_round: injected fault" in err


def test_run_batch_of_seeded_trees(tmp_path):
    # twenty seeded trees through the full command surface, all exit 0
    for seed in range(20):
        g = tmp_path / f"t{seed}.g"
        assert (
            run_cli(
                "gen", "--kind", "tree", "--n", str(5 + seed * 3), "--delta", "6",
                "--seed", str(seed), "--out", str(g),
            )
            == 0
        )
        assert run_cli("run", str(g)) == 0
