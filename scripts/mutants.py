"""Mutant sweep: every guard and bound listed here must be killed by a fast test.

Each entry of MUTANTS names a file under `src/rsd`, an exact source
fragment that occurs once in it, its replacement, and the fast tests
expected to kill it.  The sweep copies `src/`, `tests/`, `scripts/` and
`pyproject.toml` to a temporary directory (pytest puts the checkout's own
`src` first on the path, so the tests run from the copy), checks that the
listed tests pass on the unmutated copy, then applies one mutant at a
time and runs its tests, one pytest process after another.  A mutant's
run that takes longer than TIMEOUT_S seconds is stopped and the mutant
counted as killed by timeout: a broken run can go on to the round cap.
It prints one line per mutant and exits 1 if any mutant survives:

    python scripts/mutants.py [NAME ...]

With no NAME given, every mutant is run.  `tests/test_mutants.py` checks
that every fragment still occurs exactly once, so the list cannot rot.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
PROTOCOL_TESTS = "tests/test_protocol.py::"
RADIO_TESTS = "tests/test_radio.py::"
UPPER_SETS_TESTS = "tests/test_upper_sets.py::"
LABELS_TESTS = "tests/test_labels.py::"
GRAPHS_TESTS = "tests/test_graphs.py::"
HISTORY_TESTS = "tests/test_history_lab.py::"
CLI_TESTS = "tests/test_cli.py::"
TIMEOUT_S = 120  # per mutant; the listed tests take a few seconds on the unmutated source


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/rsd
    fragment: str  # occurs exactly once in the file
    replacement: str
    tests: List[str]  # pytest node ids, relative to the repo root


MUTANTS = [
    # a node's clock: only next_transmit_round runs a due timer, and both
    # engines ask it before a node decides
    Mutant(
        "due_timer_not_run_by_the_clock",
        "protocol.py",
        "        if timer is not None and timer[0] <= r:\n",
        "        if False:\n",
        [PROTOCOL_TESTS + "test_a_due_timer_runs_only_when_the_node_is_asked_its_next_round"],
    ),
    Mutant(
        "reference_decides_unasked",
        "radio.py",
        "            _next(automata, v, r)  # the node's clock: its steps due by r run\n",
        "            pass\n",
        [
            RADIO_TESTS + "test_both_engines_ask_a_node_its_next_round_before_it_decides",
            PROTOCOL_TESTS + "test_engines_agree",
        ],
    ),
    Mutant(
        "done_node_stays_done",
        "radio.py",
        "            else:  # a done node that heard something may have more to do\n"
        "                not_done.add(v)\n",
        "            else:  # a done node that heard something may have more to do\n"
        "                pass\n",
        [RADIO_TESTS + "test_a_done_node_that_hears_a_message_is_not_done_again"],
    ),
    # one ascending send list: nothing behind a wave in flight, nothing at or
    # before the last queued round
    Mutant(
        "second_wave_in_flight",
        "protocol.py",
        "        if msg is _PULSE:\n",
        "        if msg is _PULSE and sends[0][1] is not _PULSE:\n",
        [PROTOCOL_TESTS + "test_a_second_wave_in_flight_is_a_desync"],
    ),
    Mutant(
        "typed_message_in_flight",
        "protocol.py",
        "        if msg is _PULSE:\n",
        "        if msg is _PULSE and sends[0][1] is _PULSE:\n",
        [PROTOCOL_TESTS + "test_a_typed_message_while_a_wave_is_in_flight_is_a_desync"],
    ),
    Mutant(
        "wave_at_or_before_typed",
        "protocol.py",
        "        if r <= last:\n",
        "        if False:\n",
        [PROTOCOL_TESTS + "test_a_wave_at_or_before_a_queued_typed_message_is_a_desync"],
    ),
    Mutant(
        "wave_on_a_typed_round",
        "protocol.py",
        "        if r <= last:\n",
        "        if r < last:\n",
        [PROTOCOL_TESTS + "test_a_wave_at_or_before_a_queued_typed_message_is_a_desync"],
    ),
    Mutant(
        "send_order_not_checked",
        "protocol.py",
        "        if r <= last:\n",
        "        if r == last:\n",
        [PROTOCOL_TESTS + "test_a_typed_message_before_a_queued_one_is_a_desync"],
    ),
    Mutant(
        "train_not_cut_at_timer",
        "protocol.py",
        "        end = len(sends) if timer is None else bisect_left(sends, timer[0], head, key=itemgetter(0))\n",
        "        end = len(sends)\n",
        [PROTOCOL_TESTS + "test_the_timer_cuts_the_train"],
    ),
    # the one timer slot and the handler slot
    Mutant(
        "child_keeps_its_next_block",
        "protocol.py",
        "            self._timer = None  # no next block\n",
        "",
        [PROTOCOL_TESTS + "test_completed_child_leaves_no_timer_armed"],
    ),
    Mutant(
        "timer_cleared_after_its_step",
        "protocol.py",
        "            self._timer = None  # cleared first: steps re-arm\n"
        "            timer[1](timer[0])\n",
        "            timer[1](timer[0])\n"
        "            self._timer = None\n",
        [PROTOCOL_TESTS + "test_member_without_an_account_retries_one_block_later"],
    ),
    Mutant(
        "retry_keeps_a_spoiled_window",
        "protocol.py",
        "            self._window_clean = True\n            self._tags_heard = {}\n",
        "            self._tags_heard = {}\n",
        [PROTOCOL_TESTS + "test_member_without_an_account_retries_one_block_later"],
    ),
    Mutant(
        "child_stage_without_handler",
        "protocol.py",
        '            self._enter("child_blocks", self._obs_child_blocks)\n',
        '            self._enter("child_blocks")\n',
        [PROTOCOL_TESTS + "test_completed_child_leaves_no_timer_armed"],
    ),
    # the one relay rule
    Mutant(
        "relay_root_wave_from_every_node",
        "protocol.py",
        " else self.label.has(4)):\n",
        " else True):\n",
        [PROTOCOL_TESTS + "test_k2_run"],
    ),
    Mutant(
        "relay_budget_one_hop_longer",
        "protocol.py",
        "if (hop < 2 * self.h if self._mid_phase",
        "if (hop <= 2 * self.h if self._mid_phase",
        [PROTOCOL_TESTS + "test_star4_run_and_phase_weights"],
    ),
    Mutant(
        "relay_budget_one_hop_shorter",
        "protocol.py",
        "if (hop < 2 * self.h if self._mid_phase",
        "if (hop < 2 * self.h - 1 if self._mid_phase",
        [PROTOCOL_TESTS + "test_star4_run_and_phase_weights"],
    ),
    # the one hop rule, its quiet window and the validators' bounds
    Mutant(
        "quiet_window_refuses_its_own_round",
        "protocol.py",
        "    return None if prev > quiet_from else",
        "    return None if prev >= quiet_from else",
        [PROTOCOL_TESTS + "test_wave_needs_a_quiet_window_before_its_front"],
    ),
    Mutant(
        "hop_zero_accepted",
        "protocol.py",
        "    if rem or d < 1:\n",
        "    if rem or d < 0:\n",
        [
            PROTOCOL_TESTS + "test_wave_is_dated_from_its_first_hop",
            PROTOCOL_TESTS + "test_wave_hop_names_the_one_hop_that_ends_in_round_r",
        ],
    ),
    Mutant(
        "mid_phase_wave_one_hop_shorter",
        "protocol.py",
        "d <= 2 * self.h else None",
        "d < 2 * self.h else None",
        [PROTOCOL_TESTS + "test_mid_phase_wave_travels_at_most_twice_the_depth"],
    ),
    Mutant(
        "h_echo_window_one_level_longer",
        "protocol.py",
        "min(self.level + 2, value)",
        "min(self.level + 3, value)",
        [PROTOCOL_TESTS + "test_h_wave_quiet_window_ends_two_levels_of_degree_echo_below"],
    ),
    # a heard message is a pulse only if it is one, and any other marks the listener
    Mutant(
        "typed_message_not_marked",
        "protocol.py",
        "            listener.typed_message(r)\n",
        "            pass\n",
        [PROTOCOL_TESTS + "test_a_typed_message_heard_inside_a_wave_refuses_it"],
    ),
    Mutant(
        "any_message_is_a_pulse",
        "protocol.py",
        "    return obs is COLLISION or isinstance(obs, WavePulse)\n",
        "    return obs is not SILENCE\n",
        [PROTOCOL_TESTS + "test_a_typed_message_heard_inside_a_wave_refuses_it"],
    ),
    # the pulse window's cuts
    Mutant(
        "window_not_cut_at_reaction",
        "radio.py",
        "            rounds = rounds[: bisect_right(rounds, first)]\n",
        "            rounds = rounds[: bisect_right(rounds, first) + 1]\n",
        [RADIO_TESTS + "test_window_ends_where_a_listener_replies"],
    ),
    Mutant(
        "window_past_other_nodes",
        "radio.py",
        "    rounds = train[: bisect_right(train, end)]\n",
        "    rounds = list(train)\n",
        [RADIO_TESTS + "test_window_ends_before_another_node_may_transmit"],
    ),
    # the event log, kept only on request
    Mutant(
        "events_logged_without_request",
        "protocol.py",
        "self.events: Optional[List[tuple]] = [] if record_events else None\n",
        "self.events: Optional[List[tuple]] = []\n",
        [PROTOCOL_TESTS + "test_events_are_kept_only_when_asked_for"],
    ),
    # one live heap entry per node
    Mutant(
        "stale_entry_requeried",
        "radio.py",
        "        if live[v] != declared:\n            return False  # stale\n",
        "        if False:\n            return False  # stale\n",
        [RADIO_TESTS + "test_stalled_run_queries_are_linear_in_the_rounds_resolved"],
    ),
    # the one hearing rule, and the lower-bound lab that uses it directly
    Mutant(
        "hearing_ignores_collisions",
        "radio.py",
        "            heard[w] = COLLIDED if w in heard else v\n",
        "            heard[w] = v\n",
        [RADIO_TESTS + "test_resolve_round_counts"],
    ),
    Mutant(
        "lab_transmitter_keeps_what_it_hears",
        "history_lab.py",
        "            heard.pop(v, None)  # a transmitter hears nothing\n",
        "            pass\n",
        [HISTORY_TESTS + "test_histories_match_the_reference_loop"],
    ),
    Mutant(
        "center_record_for_every_t",
        "history_lab.py",
        '                        {"lemma": "pattern-determines-center", "trial": trial, "t": t}\n'
        "                    )\n"
        "                    break\n",
        '                        {"lemma": "pattern-determines-center", "trial": trial, "t": t}\n'
        "                    )\n",
        [HISTORY_TESTS + "test_lemma_2_records_name_each_members_first_diverging_t"],
    ),
    Mutant(
        "column_check_skips_different_labels",
        "history_lab.py",
        "                        elif not any(map(eq, columns[va], columns[vb])):\n",
        "                        else:\n",
        [HISTORY_TESTS + "test_violation_records_name_each_pairs_first_diverging_t"],
    ),
    # a member's block-final account and the report slots
    Mutant(
        "account_ignores_collisions",
        "upper_sets.py",
        "    if not collision_free or not tag_bits:\n",
        "    if not tag_bits:\n",
        [UPPER_SETS_TESTS + "test_account_block_needs_a_clean_window_a_tag_and_matching_counts"],
    ),
    Mutant(
        "account_without_a_tag",
        "upper_sets.py",
        "    if not collision_free or not tag_bits:\n",
        "    if not collision_free:\n",
        [UPPER_SETS_TESTS + "test_account_block_needs_a_clean_window_a_tag_and_matching_counts"],
    ),
    Mutant(
        "account_skips_count_check",
        "upper_sets.py",
        "    if sum(counts.values()) != bits_value(tag_bits):\n",
        "    if False:\n",
        [UPPER_SETS_TESTS + "test_account_block_needs_a_clean_window_a_tag_and_matching_counts"],
    ),
    Mutant(
        "account_weight_without_self",
        "upper_sets.py",
        "    return 1 + sum(w * c for w, c in counts.items())\n",
        "    return sum(w * c for w, c in counts.items())\n",
        [UPPER_SETS_TESTS + "test_account_block_needs_a_clean_window_a_tag_and_matching_counts"],
    ),
    Mutant(
        "report_slot_one_weight_later",
        "upper_sets.py",
        "    return m + (weight - 1) * m + tag_id\n",
        "    return m + weight * m + tag_id\n",
        [UPPER_SETS_TESTS + "test_report_slots_follow_the_collision_tag_slots"],
    ),
    Mutant(
        "report_slot_over_tag_slots",
        "upper_sets.py",
        "    return m + (weight - 1) * m + tag_id\n",
        "    return (weight - 1) * m + tag_id\n",
        [UPPER_SETS_TESTS + "test_report_slots_follow_the_collision_tag_slots"],
    ),
    # the one repair rule of the phase replay
    Mutant(
        "own_one_digit_promoted",
        "upper_sets.py",
        "            return False\n        if victim in pinned:\n",
        "            return True\n        if victim in pinned:\n",
        [
            UPPER_SETS_TESTS + "test_a_child_on_its_own_one_digit_is_not_promoted",
            UPPER_SETS_TESTS + "test_a_suspect_that_cannot_move_raises",
        ],
    ),
    Mutant(
        "pinned_suspect_retried",
        "upper_sets.py",
        "                u not in pinned and _promote_to_one_bit(",
        "                _promote_to_one_bit(",
        [UPPER_SETS_TESTS + "test_pinned_suspects_are_skipped_and_the_first_movable_one_is_promoted"],
    ),
    Mutant(
        "robbed_carriers_largest_first",
        "upper_sets.py",
        "silenced = [u for u in plan.nprime[v] if",
        "silenced = [u for u in reversed(plan.nprime[v]) if",
        [UPPER_SETS_TESTS + "test_robbed_member_names_its_silenced_carriers_smallest_first"],
    ),
    Mutant(
        "robbed_member_largest_first",
        "upper_sets.py",
        "            for v in sorted(incomplete):\n",
        "            for v in sorted(incomplete, reverse=True):\n",
        [UPPER_SETS_TESTS + "test_the_smallest_robbed_member_is_named"],
    ),
    Mutant(
        "miscount_suspects_own_carriers",
        "upper_sets.py",
        "sorted(u for u in audible if plan.owner.get(u) != v)",
        "sorted(audible)",
        [UPPER_SETS_TESTS + "test_a_miscounting_member_names_its_foreign_carriers"],
    ),
    # a traced run streams its trace file instead of holding the joined text
    Mutant(
        "trace_written_whole",
        "cli.py",
        "trace_out.writelines(result.trace.iter_text())",
        "trace_out.write(result.trace.format_text())",
        [CLI_TESTS + "test_a_traced_run_does_not_hold_its_trace_text"],
    ),
    # a run's output files are opened before it simulates, all or none, and
    # never two on one file
    Mutant(
        "outputs_on_one_file_allowed",
        "cli.py",
        "            if _same_file(other, path):\n",
        "            if False:\n",
        [CLI_TESTS + "test_two_outputs_on_one_file_are_refused_before_the_run"],
    ),
    Mutant(
        "hard_links_not_compared",
        "cli.py",
        "        return os.path.samefile(a, b)  # hard links\n",
        "        return False\n",
        [CLI_TESTS + "test_two_outputs_on_one_file_are_refused_before_the_run"],
    ),
    Mutant(
        "report_printed_twice",
        "cli.py",
        "if report_out is not None and report_out is not sys.stdout:",
        "if report_out is not None:",
        [CLI_TESTS + "test_a_report_to_stdout_is_printed_once"],
    ),
    Mutant(
        "outputs_opened_after_the_run",
        "cli.py",
        "        trace_out, report_out = _outputs(files, args.trace, args.report)\n"
        "        result = run_protocol(g, record_trace=trace_out is not None)\n",
        "        result = run_protocol(g, record_trace=bool(args.trace))\n"
        "        trace_out, report_out = _outputs(files, args.trace, args.report)\n",
        [CLI_TESTS + "test_an_output_that_cannot_be_written_fails_before_the_run"],
    ),
    Mutant(
        "output_emptied_by_its_check",
        "cli.py",
        "os.close(os.open(path, os.O_WRONLY))",
        "os.close(os.open(path, os.O_WRONLY | os.O_TRUNC))",
        [CLI_TESTS + "test_an_output_that_cannot_be_opened_leaves_every_output_as_it_was"],
    ),
    Mutant(
        "created_output_kept",
        "cli.py",
        "            os.remove(path)\n",
        "            pass\n",
        [CLI_TESTS + "test_an_output_that_cannot_be_opened_leaves_every_output_as_it_was"],
    ),
    # a finished node keeps what it learned, not its stages' scratch
    Mutant(
        "member_keeps_its_block_account",
        "protocol.py",
        "        self._window_clean = self._tags_heard = self._reports_heard = None  # accounted\n",
        "",
        [PROTOCOL_TESTS + "test_stage_scratch_lives_only_while_its_stage_runs"],
    ),
    Mutant(
        "root_keeps_its_degree_bits",
        "protocol.py",
        "            self._delta_bits = None  # the degree is known\n",
        "",
        [PROTOCOL_TESTS + "test_stage_scratch_lives_only_while_its_stage_runs"],
    ),
    Mutant(
        "drained_outbox_keeps_its_table",
        "protocol.py",
        "        if self._head == len(sends):  # drained: keep no spent list\n",
        "        if False:\n",
        [PROTOCOL_TESTS + "test_stage_scratch_lives_only_while_its_stage_runs"],
    ),
    Mutant(
        "every_label_encoded",
        "labels.py",
        "        labels[v], encoded[v] = shared[key]\n",
        "        labels[v], encoded[v] = shared.pop(key)\n",
        [LABELS_TESTS + "test_each_distinct_label_is_built_and_encoded_once"],
    ),
    Mutant(
        "label_key_drops_l3",
        "labels.py",
        "        key = (mask[v], l1.get(v, NO_TAG), l2.get(v, NO_TAG), l3.get(v, NO_TAG))\n",
        "        key = (mask[v], l1.get(v, NO_TAG), l2.get(v, NO_TAG))\n",
        [LABELS_TESTS + "test_every_node_carries_its_own_tags"],
    ),
    # the iFUB fringe scan skips only nodes whose bound cannot raise lb
    Mutant(
        "diameter_prunes_past_lb",
        "graphs.py",
        "                if ub[z] <= lb:",
        "                if ub[z] <= lb + 1:",
        [GRAPHS_TESTS + "test_diameter_of_every_connected_graph_up_to_five_nodes",
         GRAPHS_TESTS + "test_diameter_equals_all_pairs_bfs"],
    ),
]


def occurrences(mutant: Mutant, src: Path = ROOT / "src") -> int:
    """How often the mutant's fragment occurs in its file under `src`."""
    return (src / "rsd" / mutant.file).read_text(encoding="utf-8").count(mutant.fragment)


def _pytest(work: Path, tests: List[str], timeout: Optional[float]) -> Optional[int]:
    """pytest's exit code on `tests`, or None if it ran past `timeout` seconds."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant and the original can share a file's size and mtime
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            cmd, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:  # run() has killed pytest
        return None
    return done.returncode


def main(argv: Optional[List[str]] = None) -> int:
    names = sys.argv[1:] if argv is None else argv
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "scripts"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        all_tests = sorted({t for m in chosen for t in m.tests})
        if _pytest(work, all_tests, None) != 0:
            print("the listed tests fail on the unmutated source", file=sys.stderr)
            return 1
        survivors = 0
        for m in chosen:
            target = work / "src" / "rsd" / m.file
            original = target.read_text(encoding="utf-8")
            if original.count(m.fragment) != 1:
                print(f"{m.name}: fragment does not occur exactly once", file=sys.stderr)
                return 2
            target.write_text(original.replace(m.fragment, m.replacement), encoding="utf-8")
            code = _pytest(work, m.tests, TIMEOUT_S)
            target.write_text(original, encoding="utf-8")
            survivors += code == 0
            if code is None:
                verdict = f"killed by timeout ({TIMEOUT_S} s) in"
            else:
                verdict = "killed by" if code else "SURVIVED"
            print(f"{m.name}: {verdict} {', '.join(m.tests)}")
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
