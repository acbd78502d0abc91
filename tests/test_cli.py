import gc
import io
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest

from aspsubcount import cli, parse_program, subtractive_count
from aspsubcount.cli import main

from conftest import EXAMPLE1, FIXTURES
from helpers import (
    chain_text, cycles_text, distinct_cycles_text, pairs_text, pigeonhole_text, reach_text,
)

# The worked example's completion clauses, shared by phi1.cnf and phi2.cnf.
WORKED_CLAUSES = (
    "1 2 0\n3 4 0\n3 -5 0\n4 -5 0\n-1 5 0\n-2 -4 5 0\n5 0\n"
    "-1 -2 0\n-3 -4 5 0\n-6 2 0\n-6 4 0\n6 -2 -4 0\n-5 1 6 0\n"
)

# The same clauses as emitted when a support clause shared by two atoms
# was written once per atom (15 clauses, two of them repeats).
WORKED_CLAUSES_WITH_REPEATS = (
    "1 2 0\n3 4 0\n3 -5 0\n4 -5 0\n-1 5 0\n-2 -4 5 0\n5 0\n"
    "-1 -2 0\n-2 -1 0\n-3 -4 5 0\n-4 -3 5 0\n-6 2 0\n-6 4 0\n6 -2 -4 0\n-5 1 6 0\n"
)

# 40 pairs joined by one rule into one part with 2^40 answer sets, which no
# enumeration walks in time (40 separate pairs are one repeated part of two)
SLOW_TO_ENUMERATE = pairs_text(40) + f"c :- {', '.join(f'a{i}' for i in range(40))}.\n"


def drop_repeated_clauses(text: str) -> str:
    """DIMACS ``text`` without each clause whose literal set an earlier
    clause has, the header's clause count adjusted."""
    lines, seen, kept = text.splitlines(), set(), []
    for line in lines:
        if line[0] not in "cp":
            key = frozenset(line.split()[:-1])
            if key in seen:
                continue
            seen.add(key)
        kept.append(line)
    clauses = sum(line[0] not in "cp" for line in kept)
    return "\n".join(
        " ".join(line.split()[:3] + [str(clauses)]) if line.startswith("p ") else line
        for line in kept
    ) + "\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worked_path(tmp_path):
    path = tmp_path / "worked.lp"
    path.write_text(EXAMPLE1)
    return str(path)


@pytest.fixture
def program_file(tmp_path):
    def write(text, name="program.lp"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestAnalyze:
    def test_worked_example(self, capsys, worked_path):
        code, out, err = run_cli(capsys, "analyze", worked_path)
        assert code == 0
        assert "atoms: 5" in out
        assert "rules: 7" in out
        assert "loop atoms: 2 (q1, w)" in out
        assert "tight: no" in out
        assert "disjunctive: yes" in out

    def test_tight_program(self, capsys, program_file):
        code, out, _ = run_cli(capsys, "analyze", program_file("a :- not b.\n"))
        assert code == 0
        assert "loop atoms: 0" in out
        assert "tight: yes" in out
        assert "disjunctive: no" in out

    def test_json(self, capsys, worked_path):
        code, out, _ = run_cli(capsys, "analyze", worked_path, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "schema": 1,
            "atoms": 5,
            "rules": 7,
            "loop_atoms": ["q1", "w"],
            "tight": False,
            "disjunctive": True,
            "warnings": [],
        }

    def test_lint_warning_on_stderr(self, capsys, program_file):
        code, out, err = run_cli(
            capsys, "analyze", program_file("a :- a, b.\nb.\n")
        )
        assert code == 0
        assert "warning:" in err
        assert "warning:" not in out

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("a | b.\n"))
        code, out, _ = run_cli(capsys, "analyze", "-")
        assert code == 0
        assert "atoms: 2" in out


class TestEncode:
    def test_writes_all_files(self, capsys, worked_path, tmp_path):
        out_dir = tmp_path / "enc"
        code, out, _ = run_cli(
            capsys, "encode", worked_path, "--emit-cnf", str(out_dir)
        )
        assert code == 0
        phi1 = (out_dir / "phi1.cnf").read_text()
        phi2 = (out_dir / "phi2.cnf").read_text()
        assert "p cnf 6 13" in phi1
        assert "c p show" not in phi1
        assert "p cnf 10 24" in phi2
        assert "c p show 1 2 3 4 5 0" in phi2
        assert "c atom w 5" in phi2
        mapping = json.loads((out_dir / "phi2.map.json").read_text())
        assert mapping["cv_prime"] == {"q1": 7, "w": 8}

    @pytest.mark.parametrize(
        "text,phi1,phi2",
        [
            (
                EXAMPLE1,
                "c atom p0 1\nc atom p1 2\nc atom q0 3\nc atom q1 4\nc atom w 5\n"
                "p cnf 6 13\n" + WORKED_CLAUSES,
                "c atom p0 1\nc atom p1 2\nc atom q0 3\nc atom q1 4\nc atom w 5\n"
                "p cnf 10 24\nc p show 1 2 3 4 5 0\n" + WORKED_CLAUSES
                + "-7 4 0\n-8 5 0\n3 7 0\n7 -8 0\n-1 8 0\n-2 -7 8 0\n"
                "-9 -7 0\n-9 4 0\n-10 -8 0\n-10 5 0\n9 10 0\n",
            ),
            (
                # atoms first occur out of alphabetical order: the atom
                # lines follow ids (b is 1, a is 2), not names
                "b | a.\na :- b.\nb :- a.\n",
                "c atom b 1\nc atom a 2\np cnf 2 3\n1 2 0\n-1 2 0\n1 -2 0\n",
                "c atom b 1\nc atom a 2\np cnf 6 13\nc p show 1 2 0\n"
                "1 2 0\n-1 2 0\n1 -2 0\n-3 1 0\n-4 2 0\n3 4 0\n-3 4 0\n"
                "3 -4 0\n-5 -3 0\n-5 1 0\n-6 -4 0\n-6 2 0\n5 6 0\n",
            ),
        ],
        ids=["worked", "out-of-order"],
    )
    def test_formula_text(self, capsys, program_file, tmp_path, text, phi1, phi2):
        out_dir = tmp_path / "enc"
        code, _, _ = run_cli(
            capsys, "encode", program_file(text), "--emit-cnf", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "phi1.cnf").read_text() == phi1
        assert (out_dir / "phi2.cnf").read_text() == phi2

    def test_formula_text_drops_only_repeated_clauses(self, capsys, worked_path, tmp_path):
        # both files are the texts written when shared support clauses were
        # repeated, with every later repeat deleted and nothing else changed
        atoms = "c atom p0 1\nc atom p1 2\nc atom q0 3\nc atom q1 4\nc atom w 5\n"
        copies = (
            "-7 4 0\n-8 5 0\n3 7 0\n7 -8 0\n-1 8 0\n-2 -7 8 0\n"
            "-9 -7 0\n-9 4 0\n-10 -8 0\n-10 5 0\n9 10 0\n"
        )
        repeated_phi1 = atoms + "p cnf 6 15\n" + WORKED_CLAUSES_WITH_REPEATS
        repeated_phi2 = (
            atoms + "p cnf 10 26\nc p show 1 2 3 4 5 0\n" + WORKED_CLAUSES_WITH_REPEATS + copies
        )
        out_dir = tmp_path / "enc"
        code, _, _ = run_cli(capsys, "encode", worked_path, "--emit-cnf", str(out_dir))
        assert code == 0
        phi1 = (out_dir / "phi1.cnf").read_text()
        phi2 = (out_dir / "phi2.cnf").read_text()
        assert phi1 == drop_repeated_clauses(repeated_phi1)
        assert phi2 == drop_repeated_clauses(repeated_phi2)
        assert (phi1.count("\n"), phi2.count("\n")) == (
            repeated_phi1.count("\n") - 2, repeated_phi2.count("\n") - 2
        )

    def test_json(self, capsys, worked_path, tmp_path):
        out_dir = tmp_path / "enc"
        code, out, _ = run_cli(
            capsys, "encode", worked_path, "--emit-cnf", str(out_dir), "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["atoms"] == 5
        assert payload["phi1_vars"] == 6
        assert payload["phi2_vars"] == 10

    def test_emit_dir_is_required(self, capsys, worked_path):
        code, _, err = run_cli(capsys, "encode", worked_path)
        assert code == 1
        assert "emit-cnf" in err


class TestCount:
    def test_subtractive_output(self, capsys, worked_path):
        code, out, _ = run_cli(capsys, "count", worked_path)
        assert code == 0
        assert "mode: subtractive" in out
        assert "backend: builtin" in out
        assert "loop atoms: 2" in out
        assert "overcount: 2" in out
        assert "surplus: 1" in out
        assert out.rstrip().endswith("answer sets: 1")

    def test_second_call_matches_a_fresh_process(self, capsys, worked_path):
        # the argument parser is built once per process; no flag of the
        # first call may carry over into the second
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--mode", "hybrid", "--threshold", "8",
            "--json",
        )
        assert code == 0 and json.loads(out)["answer_sets"] == 1
        code, out, err = run_cli(capsys, "count", worked_path)
        fresh = subprocess.run(
            [sys.executable, "-c",
             "import sys; from aspsubcount.cli import main; sys.exit(main())",
             "count", worked_path],
            capture_output=True,
            text=True,
        )
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert "mode: subtractive" in out

    @pytest.mark.parametrize("order", ["forward", "reversed", "shuffled"])
    def test_chain_in_any_rule_order(self, capsys, program_file, order):
        # each x_i implies the next; the rule order decides which way the
        # implications run through the completion's clause list
        lines = chain_text(200).splitlines(keepends=True)
        if order == "reversed":
            lines.reverse()
        elif order == "shuffled":
            random.Random(200).shuffle(lines)
        code, out, _ = run_cli(capsys, "count", program_file("".join(lines)))
        assert code == 0
        assert "overcount: 202" in out
        assert out.rstrip().endswith("answer sets: 202")

    @pytest.mark.parametrize("mode", ["subtractive", "enumerate"])
    def test_builtin_timeout_exit_code(self, capsys, program_file, mode):
        # counting ten pigeons in nine holes takes seconds, and enumerating
        # 2^40 answer sets takes forever; the limit stops either search
        if mode == "subtractive":
            path = program_file(pigeonhole_text(10, 9))
        else:
            path = program_file(SLOW_TO_ENUMERATE)
        start = time.monotonic()
        code, out, err = run_cli(capsys, "count", path, "--mode", mode, "--timeout", "0.2")
        assert time.monotonic() - start < 3
        assert code == 2
        assert out == ""
        assert err == "aspsubcount: builtin counter timed out after 0.2s\n"

    def test_timeout_counts_from_the_start(self, capsys, worked_path, monkeypatch):
        # reading the program takes longer than the whole budget; the count
        # after it starts no search
        def slow_parse(text):
            time.sleep(1.2)
            return parse_program(text)

        monkeypatch.setattr(cli, "parse_program", slow_parse)
        code, out, err = run_cli(capsys, "count", worked_path, "--timeout", "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "timed out" in err
        assert "Traceback" not in err

    def test_timeout_stops_the_front_end(self, capsys, program_file):
        # parsing and encoding a 200000-rule ring take seconds; they check
        # the same deadline as the search
        n = 200_000
        ring = "".join(f"a{i} :- a{i + 1}.\n" for i in range(n))
        path = program_file(ring + f"a{n} :- a0.\na0 :- not b.\nb :- not a0.\n")
        start = time.monotonic()
        code, out, err = run_cli(capsys, "count", path, "--timeout", "0.5")
        assert time.monotonic() - start < 2
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "timed out" in err
        assert "Traceback" not in err

    def test_json_matches_library(self, capsys, worked_path, example1):
        code, out, _ = run_cli(capsys, "count", worked_path, "--json")
        assert code == 0
        payload = json.loads(out)
        report = subtractive_count(example1).to_json_dict()
        for key in ("schema", "overcount", "surplus", "answer_sets", "mode",
                    "backend", "loop_atom_count"):
            assert payload[key] == report[key]

    def test_enumerate_exhausted(self, capsys, worked_path):
        code, out, err = run_cli(
            capsys, "count", worked_path, "--mode", "enumerate"
        )
        assert code == 0
        assert "mode: enumeration (exhausted)" in out
        assert "answer sets: 1" in out
        assert "lower bound" not in err

    def test_enumerate_capped(self, capsys, program_file):
        path = program_file("a1 | b1.\na2 | b2.\n")
        code, out, err = run_cli(
            capsys, "count", path, "--mode", "enumerate", "--threshold", "2"
        )
        assert code == 0
        assert "mode: enumeration (capped)" in out
        assert "answer sets: 2" in out
        assert "lower bound" in err

    def test_enumerate_json_reports_exhaustion(self, capsys, program_file):
        path = program_file("a1 | b1.\na2 | b2.\n")
        code, out, _ = run_cli(
            capsys, "count", path, "--mode", "enumerate", "--threshold", "2",
            "--json",
        )
        payload = json.loads(out)
        assert payload["answer_sets"] == 2
        assert payload["exhausted"] is False
        assert payload["mode"] == "enumeration"

    def test_enumerate_json_reports_measured_times(self, capsys, program_file):
        path = program_file("a | b.\nc | d.\n")
        code, out, _ = run_cli(capsys, "count", path, "--mode", "enumerate", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["answer_sets"] == 4 and payload["exhausted"] is True
        assert payload["encode_time"] > 0.0 and payload["count_time"] > 0.0

    def test_hybrid_modes(self, capsys, worked_path):
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--mode", "hybrid", "--threshold", "1"
        )
        assert code == 0 and "mode: hybrid" in out
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--mode", "hybrid", "--threshold", "50"
        )
        assert code == 0 and "mode: enumeration" in out
        assert "answer sets: 1" in out

    def test_emit_cnf(self, capsys, worked_path, tmp_path):
        out_dir = tmp_path / "cnf"
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--emit-cnf", str(out_dir)
        )
        assert code == 0
        assert (out_dir / "phi1.cnf").exists()
        assert (out_dir / "phi2.cnf").exists()

    @pytest.mark.parametrize("mode", ["enumerate", "hybrid"])
    @pytest.mark.parametrize(
        "text, files",
        [
            ("a | b.\nc | d.\n", ["phi1.cnf", "phi2.cnf", "phi2.map.json"]),
            (EXAMPLE1, ["phi1.cnf", "phi2.cnf", "phi2.map.json"]),
        ],
    )
    def test_emit_cnf_in_every_mode(self, capsys, program_file, tmp_path, mode, text, files):
        # hybrid's enumeration finishes below the threshold here
        path = program_file(text)
        reference = tmp_path / "subtractive"
        code = run_cli(capsys, "count", path, "--emit-cnf", str(reference))[0]
        assert code == 0
        out_dir = tmp_path / mode
        code, _, _ = run_cli(
            capsys, "count", path, "--mode", mode, "--threshold", "50",
            "--emit-cnf", str(out_dir),
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == files
        for name in files:
            assert (out_dir / name).read_text() == (reference / name).read_text()
        assert "\nc p show " not in (out_dir / "phi1.cnf").read_text()

    @pytest.mark.parametrize("mode", ["subtractive", "enumerate", "hybrid"])
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_emit_cnf_writes_what_encode_writes(
        self, capsys, program_file, tmp_path, mode, name
    ):
        path = program_file(FIXTURES[name])
        encoded, emitted = tmp_path / "encode", tmp_path / mode
        assert run_cli(capsys, "encode", path, "--emit-cnf", str(encoded))[0] == 0
        code = run_cli(capsys, "count", path, "--mode", mode, "--emit-cnf", str(emitted))[0]
        assert code == 0
        files = ["phi1.cnf", "phi2.cnf", "phi2.map.json"]
        assert sorted(p.name for p in emitted.iterdir()) == files
        for file in files:
            assert (emitted / file).read_bytes() == (encoded / file).read_bytes()

    @pytest.mark.parametrize("mode", ["enumerate", "hybrid"])
    @pytest.mark.parametrize("threshold", ["0", "-3"])
    def test_threshold_below_one_is_a_usage_error(
        self, capsys, worked_path, mode, threshold
    ):
        code, out, err = run_cli(
            capsys, "count", worked_path, "--mode", mode, "--threshold", threshold
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            f"aspsubcount count: error: argument --threshold: "
            f"must be at least 1, got {int(threshold)}"
        ]

    @pytest.mark.parametrize("flag, kind", [("--threshold", "int"), ("--timeout", "float")])
    def test_a_value_that_is_no_number_is_a_usage_error(self, capsys, worked_path, flag, kind):
        code, out, err = run_cli(capsys, "count", worked_path, "--mode", "hybrid", flag, "abc")
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"aspsubcount count: error: argument {flag}: invalid {kind} value: 'abc'"]

    def test_project_overcount_flag(self, capsys, worked_path):
        # no such flag: the completion's auxiliaries are all defined, so
        # projecting them away changes no count
        code, out, err = run_cli(capsys, "count", worked_path, "--project-overcount")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "aspsubcount: error: unrecognized arguments: --project-overcount"
        ]

    def test_threshold_needs_a_mode_that_enumerates(self, capsys, worked_path):
        code, out, err = run_cli(capsys, "count", worked_path, "--threshold", "5")
        assert code == 1
        assert out == ""
        assert err == "aspsubcount: error: --mode subtractive takes no --threshold\n"
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--mode", "subtractive", "--threshold", "5"
        )
        assert code == 1
        assert out == ""


class TestCountExternal:
    def test_exec_backend(self, capsys, worked_path, wrapper_factory):
        wrapper = wrapper_factory()
        code, out, _ = run_cli(
            capsys, "count", worked_path, "--backend", f"exec:{wrapper}"
        )
        assert code == 0
        assert f"backend: exec:{wrapper}" in out
        assert "answer sets: 1" in out

    def test_env_variable_backend(self, capsys, worked_path, wrapper_factory,
                                  monkeypatch):
        wrapper = wrapper_factory()
        monkeypatch.setenv("ASPSUBCOUNT_BACKEND", f"exec:{wrapper}")
        code, out, _ = run_cli(capsys, "count", worked_path)
        assert code == 0
        assert f"backend: exec:{wrapper}" in out

    def test_flag_overrides_env(self, capsys, worked_path, monkeypatch):
        monkeypatch.setenv("ASPSUBCOUNT_BACKEND", "exec:/nonexistent/counter")
        code, out, _ = run_cli(capsys, "count", worked_path, "--backend", "builtin")
        assert code == 0
        assert "backend: builtin" in out

    def test_timeout_exit_code(self, capsys, worked_path, wrapper_factory):
        wrapper = wrapper_factory("--sleep", "5")
        code, _, err = run_cli(
            capsys, "count", worked_path,
            "--backend", f"exec:{wrapper}", "--timeout", "0.3",
        )
        assert code == 2
        assert "timed out" in err

    @pytest.mark.parametrize("seconds", ["2200000", "1e9", "1e300"])
    def test_huge_timeout(self, capsys, worked_path, wrapper_factory, seconds):
        # a deadline days or centuries away waits for the counter as no
        # deadline does
        wrapper = wrapper_factory()
        code, out, err = run_cli(
            capsys, "count", worked_path, "--backend", f"exec:{wrapper}", "--timeout", seconds
        )
        assert (code, err) == (0, "")
        assert "answer sets: 1" in out

    def test_timeout_bounds_the_whole_count(self, capsys, program_file, wrapper_factory):
        # six loop parts make twelve counter calls of 0.4 s each; --timeout 1
        # is one deadline for all of them, not 1 s per call
        wrapper = wrapper_factory("--sleep", "0.4")
        path = program_file(distinct_cycles_text(6))
        start = time.monotonic()
        code, out, err = run_cli(
            capsys, "count", path, "--backend", f"exec:{wrapper}", "--timeout", "1"
        )
        assert time.monotonic() - start < 3
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "timed out" in err

    def test_integrity_exit_code(self, capsys, worked_path, wrapper_factory):
        wrapper = wrapper_factory("--plain-value", "1", "--projected-value", "5")
        code, _, err = run_cli(
            capsys, "count", worked_path, "--backend", f"exec:{wrapper}"
        )
        assert code == 3
        assert "integrity error" in err

    def test_counter_failure_exit_code(self, capsys, worked_path, wrapper_factory):
        wrapper = wrapper_factory("--fail")
        code, _, err = run_cli(
            capsys, "count", worked_path, "--backend", f"exec:{wrapper}"
        )
        assert code == 1
        assert "backend error" in err

    def test_enumerate_rejects_an_external_backend(self, capsys, worked_path, monkeypatch):
        code, out, err = run_cli(
            capsys, "count", worked_path, "--mode", "enumerate",
            "--backend", "exec:/nonexistent",
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "aspsubcount: error: --mode enumerate runs no model counter; drop --backend"
        ]
        # the builtin backend and the environment variable stay accepted
        monkeypatch.setenv("ASPSUBCOUNT_BACKEND", "exec:/nonexistent")
        for flags in ([], ["--backend", "builtin"]):
            code, out, _ = run_cli(
                capsys, "count", worked_path, "--mode", "enumerate", *flags
            )
            assert code == 0
            assert "answer sets: 1" in out

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
    def test_timeout_must_be_positive_and_finite(
        self, capsys, worked_path, wrapper_factory, timeout
    ):
        code, out, err = run_cli(
            capsys, "count", worked_path,
            "--backend", f"exec:{wrapper_factory()}", "--timeout", timeout,
        )
        assert (code, out) == (1, "")
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "aspsubcount count: error: argument --timeout: "
            f"must be a positive finite number, got {timeout}"
        ]

    def test_negative_count_is_a_backend_error(self, capsys, program_file, wrapper_factory):
        wrapper = wrapper_factory("--projected-value", "-3")
        path = program_file("a :- b.\nb :- a.\na | c.\n")
        code, out, err = run_cli(capsys, "count", path, "--backend", f"exec:{wrapper}")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("aspsubcount: backend error: ")

    def test_counts_past_4300_digits(self, capsys, program_file, tmp_path):
        big = "1" + "0" * 5000
        counter = tmp_path / "big-counter"
        counter.write_text(f'#!/bin/sh\necho "s mc {big}"\n')
        counter.chmod(0o755)
        path = program_file("a | b.\n")
        code, out, err = run_cli(capsys, "count", path, "--backend", f"exec:{counter}")
        assert (code, err) == (0, "")
        assert out.rstrip().endswith(f"answer sets: {big}")
        code, out, _ = run_cli(
            capsys, "count", path, "--backend", f"exec:{counter}", "--json"
        )
        assert code == 0 and f'"answer_sets": {big},' in out

    def test_counter_output_not_text(self, capsys, program_file, tmp_path):
        counter = tmp_path / "bytes-counter"
        counter.write_text("#!/bin/sh\nprintf '\\377\\376 s mc 3\\n'\n")
        counter.chmod(0o755)
        path = program_file("a | b.\n")
        code, out, err = run_cli(capsys, "count", path, "--backend", f"exec:{counter}")
        assert (code, out) == (1, "")
        assert err == "aspsubcount: backend error: no model count found in counter output\n"

    def test_bad_backend_specs(self, capsys, worked_path):
        code, _, err = run_cli(capsys, "count", worked_path, "--backend", "magic")
        assert code == 1 and "unknown backend" in err
        code, _, err = run_cli(capsys, "count", worked_path, "--backend", "exec:")
        assert code == 1 and "empty executable" in err


class TestOracle:
    def test_worked_example(self, capsys, worked_path):
        code, out, _ = run_cli(capsys, "oracle", worked_path)
        assert code == 0
        assert "{p0, q0, q1, w}" in out
        assert out.rstrip().endswith("answer sets: 1")

    def test_json(self, capsys, program_file):
        code, out, _ = run_cli(
            capsys, "oracle", program_file("a | b.\n"), "--json"
        )
        payload = json.loads(out)
        assert payload["answer_sets"] == 2
        assert sorted(map(tuple, payload["sets"])) == [("a",), ("b",)]

    def test_too_many_atoms(self, capsys, program_file):
        text = "".join(f"a{i} | b{i}.\n" for i in range(13))
        code, _, err = run_cli(capsys, "oracle", program_file(text))
        assert code == 1
        assert "capped" in err


class TestCheck:
    def test_answer_set(self, capsys, worked_path):
        code, out, _ = run_cli(
            capsys, "check", worked_path, "--model", "p0,q0,q1,w"
        )
        assert code == 0
        assert "model of program: yes" in out
        assert "model of completion: yes" in out
        assert "justification (all atoms): UNSAT" in out
        assert "justification (loop atoms): UNSAT" in out
        assert "copy check: UNSAT" in out
        assert out.rstrip().endswith("answer set: yes")

    def test_unjustified_model(self, capsys, worked_path):
        code, out, _ = run_cli(
            capsys, "check", worked_path, "--model", "p1,q0,q1,w"
        )
        assert code == 0
        assert "justification (all atoms): SAT (witness: {p1, q0})" in out
        assert "justification (loop atoms): SAT (witness: {p1, q0})" in out
        assert "copy check: SAT" in out
        assert out.rstrip().endswith("answer set: no")

    def test_non_model(self, capsys, worked_path):
        code, out, _ = run_cli(capsys, "check", worked_path, "--model", "p1,q1,w")
        assert code == 0
        assert "model of program: no" in out
        assert "justification (all atoms): skipped (not a model)" in out
        assert "copy check: skipped (not a completion model)" in out
        assert out.rstrip().endswith("answer set: no")

    def test_program_model_outside_completion(self, capsys, program_file):
        # {a} satisfies the implication but has no support for a
        code, out, _ = run_cli(
            capsys, "check", program_file("a :- b.\n"), "--model", "a"
        )
        assert code == 0
        assert "model of program: yes" in out
        assert "model of completion: no" in out
        assert "justification (all atoms): SAT (witness: {})" in out
        assert "justification (loop atoms): skipped (not a completion model)" in out

    def test_empty_model(self, capsys, program_file):
        code, out, _ = run_cli(
            capsys, "check", program_file("a | b.\n"), "--model", ""
        )
        assert code == 0
        assert "model of program: no" in out

    def test_unknown_atom(self, capsys, worked_path):
        code, _, err = run_cli(capsys, "check", worked_path, "--model", "p0,zzz")
        assert code == 1
        assert "unknown atom" in err

    def test_json(self, capsys, worked_path):
        code, out, _ = run_cli(
            capsys, "check", worked_path, "--model", "p1,q0,q1,w", "--json"
        )
        payload = json.loads(out)
        assert payload["model_of_program"] is True
        assert payload["model_of_completion"] is True
        assert payload["justification_all"] == {
            "sat": True,
            "witness": ["p1", "q0"],
        }
        assert payload["justification_loops"]["sat"] is True
        assert payload["copy_check"] is True
        assert payload["answer_set"] is False


class TestErrorPaths:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "/nonexistent/program.lp")
        assert code == 1
        assert "cannot read" in err

    def assert_one_line(self, code, out, err, start):
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"aspsubcount: error: {start}")

    def test_directory_as_program(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "count", str(tmp_path))
        self.assert_one_line(code, out, err, f"cannot read {str(tmp_path)!r}: ")

    def test_program_not_text(self, capsys, tmp_path):
        path = tmp_path / "binary.lp"
        path.write_bytes(b"a | b.\n\xff\xfe\n")
        code, out, err = run_cli(capsys, "count", str(path))
        self.assert_one_line(code, out, err, f"cannot read {str(path)!r}: ")

    @pytest.mark.parametrize("command", ["count", "encode"])
    def test_emit_cnf_onto_a_file(self, capsys, worked_path, tmp_path, command):
        target = tmp_path / "taken"
        target.write_text("")
        code, out, err = run_cli(capsys, command, worked_path, "--emit-cnf", str(target))
        self.assert_one_line(code, out, err, f"cannot write {str(target)!r}: ")
        assert target.read_text() == ""

    def test_parse_error(self, capsys, program_file):
        code, _, err = run_cli(capsys, "count", program_file("a |\n"))
        assert code == 1
        assert "parse error" in err
        assert "line 1" in err

    def test_unknown_flag(self, capsys, worked_path):
        code, _, _ = run_cli(capsys, "count", worked_path, "--frobnicate")
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "explode")
        assert code == 1

    def test_no_arguments(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "error, message",
        [(RecursionError, "recursion too deep"), (MemoryError, "out of memory")],
    )
    def test_resource_errors_end_in_one_line(
        self, capsys, monkeypatch, worked_path, error, message
    ):
        def fail(*args, **kwargs):
            raise error()

        monkeypatch.setattr("aspsubcount.cli.subtractive_count", fail)
        code, out, err = run_cli(capsys, "count", worked_path)
        assert code == 1
        assert out == ""
        assert err.startswith("aspsubcount: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "analyze" in out and "count" in out


class TestInstalledEntryPoint:
    def test_console_script(self, worked_path):
        for launch in (
            ["-c", "import sys; from aspsubcount.cli import main; sys.exit(main())"],
            ["-m", "aspsubcount.cli"],
        ):
            proc = subprocess.run(
                [sys.executable, *launch, "count", worked_path],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, launch
            assert "answer sets: 1" in proc.stdout

    def test_program_files_are_utf8_in_any_locale(self, tmp_path):
        path = tmp_path / "cafe.lp"
        path.write_bytes("a | b. % café\n".encode("utf-8"))
        ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "POSIX"}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from aspsubcount.cli import main; sys.exit(main())",
             "count", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, **ascii_locale},
        )
        assert proc.returncode == 0, proc.stderr
        assert "answer sets: 2" in proc.stdout


class TestCollector:
    """``main`` runs a command with the cyclic garbage collector off, and
    gives the caller back its own setting however the command ends."""

    @pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
    def collecting(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize(
        "text, args, code",
        [
            (EXAMPLE1, ["--json"], 0),
            ("a |\n", [], 1),  # parse error
            (EXAMPLE1, ["--threshold", "5"], 1),  # usage error, returned
            (EXAMPLE1, ["--backend", "nope"], 1),  # usage error, raised
            (EXAMPLE1, ["--frobnicate"], 1),  # argparse error
            (pigeonhole_text(10, 9), ["--timeout", "0.1"], 2),
        ],
        ids=["count", "parse-error", "usage-error", "bad-backend", "argparse-error",
             "timeout"],
    )
    def test_setting_is_restored(self, capsys, program_file, collecting, text, args, code):
        assert run_cli(capsys, "count", program_file(text), *args)[0] == code
        assert gc.isenabled() is collecting

    def test_setting_is_restored_after_recursion_error(
        self, capsys, monkeypatch, worked_path, collecting
    ):
        def fail(*args, **kwargs):
            raise RecursionError()

        monkeypatch.setattr("aspsubcount.cli.subtractive_count", fail)
        assert run_cli(capsys, "count", worked_path)[0] == 1
        assert gc.isenabled() is collecting

    def test_command_runs_with_the_collector_off(
        self, capsys, monkeypatch, worked_path, collecting
    ):
        seen = []

        def count(*args):
            seen.append(gc.isenabled())
            return subtractive_count(*args)

        monkeypatch.setattr("aspsubcount.cli.subtractive_count", count)
        assert run_cli(capsys, "count", worked_path)[0] == 0
        assert seen == [False]


# Every conftest fixture and a few generated programs, each with loop parts,
# tight parts or both, for the test that no command makes reference cycles.
CYCLE_PROGRAMS = {
    **FIXTURES,
    "cycles-5": cycles_text(5),
    "distinct-cycles-3": distinct_cycles_text(3),
    "pairs-8": pairs_text(8),
    "chain-40": chain_text(40),
    "reach-6-9": reach_text(random.Random(7), 6, 9),
    "cycles-3+pairs-3": cycles_text(3) + pairs_text(3, "p"),
}


@pytest.fixture
def collector_off():
    """The cyclic collector off, as ``main`` runs a command, with no garbage
    left from before. The argument parser is built first: building it
    leaves argparse's help formatters in cycles, once per process."""
    before = gc.isenabled()
    gc.disable()
    cli._build_parser()
    gc.collect()
    yield
    if before:
        gc.enable()


@pytest.mark.parametrize("name", CYCLE_PROGRAMS)
def test_no_command_makes_reference_cycles(
    capsys, program_file, tmp_path, collector_off, name
):
    # A cycle that a command makes would stay in memory until the caller
    # collects: after each command, gc.collect() must find nothing.
    path, out = program_file(CYCLE_PROGRAMS[name]), str(tmp_path / "out")
    commands = [
        ["count"],
        ["count", "--json"],
        ["count", "--mode", "enumerate"],
        ["count", "--mode", "enumerate", "--threshold", "2"],
        ["count", "--mode", "hybrid"],
        ["count", "--mode", "hybrid", "--threshold", "2"],
        ["count", "--emit-cnf", out],
        ["encode", "--emit-cnf", out],
        ["analyze"],
        ["analyze", "--json"],
        ["check", "--model", ""],
    ]
    if name in FIXTURES:  # at most 12 atoms, so brute force is quick
        commands.append(["oracle"])
    for command in commands:
        code = main([command[0], path, *command[1:]])
        capsys.readouterr()
        assert code == 0, command
        assert gc.collect() == 0, command


@pytest.mark.parametrize(
    "text, args, code",
    [
        ("a |\n", [], 1),
        (EXAMPLE1, ["--backend", "nope"], 1),
        (EXAMPLE1, ["--mode", "subtractive", "--threshold", "5"], 1),
        (pigeonhole_text(10, 9), ["--timeout", "0.1"], 2),
        (SLOW_TO_ENUMERATE, ["--mode", "enumerate", "--timeout", "0.1"], 2),
    ],
    ids=["parse-error", "bad-backend", "usage-error", "timeout", "enumerate-timeout"],
)
def test_no_failed_count_makes_reference_cycles(
    capsys, program_file, collector_off, text, args, code
):
    assert run_cli(capsys, "count", program_file(text), *args)[0] == code
    assert gc.collect() == 0


# Each subcommand's exit code, stdout and stderr on the worked example and
# on two pairs, byte for byte: (program, arguments after the program's path,
# exit code, stdout, stderr). The run's directory reads TMP, DIR is the
# output directory TMP/out, and count's times read T.
GOLDEN = [
    ("worked", "analyze", 0,
     "atoms: 5\n"
     "rules: 7\n"
     "loop atoms: 2 (q1, w)\n"
     "tight: no\n"
     "disjunctive: yes\n",
     ""),
    ("worked", "analyze --json", 0,
     '{"schema": 1, "atoms": 5, "rules": 7, "loop_atoms": ["q1", "w"], '
     '"tight": false, "disjunctive": true, "warnings": []}\n',
     ""),
    ("worked", "encode --emit-cnf DIR", 0,
     "wrote TMP/out/phi1.cnf\n"
     "wrote TMP/out/phi2.cnf\n"
     "wrote TMP/out/phi2.map.json\n",
     ""),
    ("worked", "encode --emit-cnf DIR --json", 0,
     '{"schema": 1, "phi1": "TMP/out/phi1.cnf", '
     '"phi2": "TMP/out/phi2.cnf", "map": "TMP/out/phi2.map.json", '
     '"atoms": 5, "phi1_vars": 6, "phi2_vars": 10}\n',
     ""),
    ("worked", "count", 0,
     "mode: subtractive\n"
     "backend: builtin\n"
     "loop atoms: 2\n"
     "overcount: 2\n"
     "surplus: 1\n"
     "answer sets: 1\n",
     ""),
    ("worked", "count --json", 0,
     '{"schema": 1, "overcount": 2, "surplus": 1, "answer_sets": 1, '
     '"mode": "subtractive", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 2}\n',
     ""),
    ("worked", "count --mode enumerate --threshold 1", 0,
     "mode: enumeration (capped)\n"
     "answer sets: 1\n",
     "note: stopped at limit 1; count is a lower bound\n"),
    ("worked", "count --mode enumerate --threshold 1 --json", 0,
     '{"schema": 1, "overcount": 1, "surplus": 0, "answer_sets": 1, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 2, "exhausted": false}\n',
     "note: stopped at limit 1; count is a lower bound\n"),
    ("worked", "count --mode enumerate", 0,
     "mode: enumeration (exhausted)\n"
     "answer sets: 1\n",
     ""),
    ("worked", "count --mode enumerate --json", 0,
     '{"schema": 1, "overcount": 1, "surplus": 0, "answer_sets": 1, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 2, "exhausted": true}\n',
     ""),
    ("worked", "count --mode hybrid --threshold 100", 0,
     "mode: enumeration\n"
     "backend: builtin\n"
     "loop atoms: 2\n"
     "overcount: 1\n"
     "surplus: 0\n"
     "answer sets: 1\n",
     ""),
    ("worked", "count --mode hybrid --threshold 100 --json", 0,
     '{"schema": 1, "overcount": 1, "surplus": 0, "answer_sets": 1, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 2, "exhausted": true}\n',
     ""),
    ("worked", "count --mode hybrid --threshold 1", 0,
     "mode: hybrid\n"
     "backend: builtin\n"
     "loop atoms: 2\n"
     "overcount: 2\n"
     "surplus: 1\n"
     "answer sets: 1\n",
     ""),
    ("worked", "count --mode hybrid --threshold 1 --json", 0,
     '{"schema": 1, "overcount": 2, "surplus": 1, "answer_sets": 1, '
     '"mode": "hybrid", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 2}\n',
     ""),
    ("worked", "oracle", 0,
     "{p0, q0, q1, w}\n"
     "answer sets: 1\n",
     ""),
    ("worked", "oracle --json", 0,
     '{"schema": 1, "answer_sets": 1, "sets": [["p0", "q0", "q1", "w"]]}\n',
     ""),
    ("worked", "check --model p0,q0,q1,w", 0,
     "model of program: yes\n"
     "model of completion: yes\n"
     "justification (all atoms): UNSAT\n"
     "justification (loop atoms): UNSAT\n"
     "copy check: UNSAT\n"
     "answer set: yes\n",
     ""),
    ("worked", "check --model p0,q0,q1,w --json", 0,
     '{"schema": 1, "model_of_program": true, '
     '"model_of_completion": true, "justification_all": {"sat": false, '
     '"witness": null}, "justification_loops": {"sat": false, '
     '"witness": null}, "copy_check": false, "answer_set": true}\n',
     ""),
    ("worked", "check --model p1,q0,q1,w", 0,
     "model of program: yes\n"
     "model of completion: yes\n"
     "justification (all atoms): SAT (witness: {p1, q0})\n"
     "justification (loop atoms): SAT (witness: {p1, q0})\n"
     "copy check: SAT\n"
     "answer set: no\n",
     ""),
    ("worked", "check --model p1,q0,q1,w --json", 0,
     '{"schema": 1, "model_of_program": true, '
     '"model_of_completion": true, "justification_all": {"sat": true, '
     '"witness": ["p1", "q0"]}, "justification_loops": {"sat": true, '
     '"witness": ["p1", "q0"]}, "copy_check": true, "answer_set": false}\n',
     ""),
    ("worked", "check --model p1,q1,w", 0,
     "model of program: no\n"
     "model of completion: no\n"
     "justification (all atoms): skipped (not a model)\n"
     "justification (loop atoms): skipped (not a completion model)\n"
     "copy check: skipped (not a completion model)\n"
     "answer set: no\n",
     ""),
    ("worked", "check --model p1,q1,w --json", 0,
     '{"schema": 1, "model_of_program": false, '
     '"model_of_completion": false, "justification_all": null, '
     '"justification_loops": null, "copy_check": null, "answer_set": false}\n',
     ""),
    ("worked", "check --model p0,p1,q0,q1,w", 0,
     "model of program: yes\n"
     "model of completion: no\n"
     "justification (all atoms): SAT (witness: {p1, q0, q1, w})\n"
     "justification (loop atoms): skipped (not a completion model)\n"
     "copy check: skipped (not a completion model)\n"
     "answer set: no\n",
     ""),
    ("worked", "check --model p0,p1,q0,q1,w --json", 0,
     '{"schema": 1, "model_of_program": true, '
     '"model_of_completion": false, "justification_all": {"sat": true, '
     '"witness": ["p1", "q0", "q1", "w"]}, "justification_loops": null, '
     '"copy_check": null, "answer_set": false}\n',
     ""),
    ("pairs", "analyze", 0,
     "atoms: 4\n"
     "rules: 2\n"
     "loop atoms: 0\n"
     "tight: yes\n"
     "disjunctive: yes\n",
     ""),
    ("pairs", "analyze --json", 0,
     '{"schema": 1, "atoms": 4, "rules": 2, "loop_atoms": [], '
     '"tight": true, "disjunctive": true, "warnings": []}\n',
     ""),
    ("pairs", "encode --emit-cnf DIR", 0,
     "wrote TMP/out/phi1.cnf\n"
     "wrote TMP/out/phi2.cnf\n"
     "wrote TMP/out/phi2.map.json\n",
     ""),
    ("pairs", "encode --emit-cnf DIR --json", 0,
     '{"schema": 1, "phi1": "TMP/out/phi1.cnf", '
     '"phi2": "TMP/out/phi2.cnf", "map": "TMP/out/phi2.map.json", '
     '"atoms": 4, "phi1_vars": 4, "phi2_vars": 4}\n',
     ""),
    ("pairs", "count", 0,
     "mode: subtractive\n"
     "backend: builtin\n"
     "loop atoms: 0\n"
     "overcount: 4\n"
     "surplus: 0\n"
     "answer sets: 4\n",
     ""),
    ("pairs", "count --json", 0,
     '{"schema": 1, "overcount": 4, "surplus": 0, "answer_sets": 4, '
     '"mode": "subtractive", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0}\n',
     ""),
    ("pairs", "count --mode enumerate --threshold 1", 0,
     "mode: enumeration (capped)\n"
     "answer sets: 1\n",
     "note: stopped at limit 1; count is a lower bound\n"),
    ("pairs", "count --mode enumerate --threshold 1 --json", 0,
     '{"schema": 1, "overcount": 1, "surplus": 0, "answer_sets": 1, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0, "exhausted": false}\n',
     "note: stopped at limit 1; count is a lower bound\n"),
    ("pairs", "count --mode enumerate", 0,
     "mode: enumeration (exhausted)\n"
     "answer sets: 4\n",
     ""),
    ("pairs", "count --mode enumerate --json", 0,
     '{"schema": 1, "overcount": 4, "surplus": 0, "answer_sets": 4, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0, "exhausted": true}\n',
     ""),
    ("pairs", "count --mode hybrid --threshold 100", 0,
     "mode: enumeration\n"
     "backend: builtin\n"
     "loop atoms: 0\n"
     "overcount: 4\n"
     "surplus: 0\n"
     "answer sets: 4\n",
     ""),
    ("pairs", "count --mode hybrid --threshold 100 --json", 0,
     '{"schema": 1, "overcount": 4, "surplus": 0, "answer_sets": 4, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0, "exhausted": true}\n',
     ""),
    ("pairs", "count --mode hybrid --threshold 1", 0,
     "mode: hybrid\n"
     "backend: builtin\n"
     "loop atoms: 0\n"
     "overcount: 4\n"
     "surplus: 0\n"
     "answer sets: 4\n",
     ""),
    ("pairs", "count --mode hybrid --threshold 1 --json", 0,
     '{"schema": 1, "overcount": 4, "surplus": 0, "answer_sets": 4, '
     '"mode": "hybrid", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0}\n',
     ""),
    ("pairs", "oracle", 0,
     "{a, c}\n"
     "{b, c}\n"
     "{a, d}\n"
     "{b, d}\n"
     "answer sets: 4\n",
     ""),
    ("pairs", "oracle --json", 0,
     '{"schema": 1, "answer_sets": 4, "sets": [["a", "c"], ["b", "c"], '
     '["a", "d"], ["b", "d"]]}\n',
     ""),
    ("pairs", "check --model a,c", 0,
     "model of program: yes\n"
     "model of completion: yes\n"
     "justification (all atoms): UNSAT\n"
     "justification (loop atoms): UNSAT\n"
     "copy check: UNSAT\n"
     "answer set: yes\n",
     ""),
    ("pairs", "check --model a,c --json", 0,
     '{"schema": 1, "model_of_program": true, '
     '"model_of_completion": true, "justification_all": {"sat": false, '
     '"witness": null}, "justification_loops": {"sat": false, '
     '"witness": null}, "copy_check": false, "answer_set": true}\n',
     ""),
    ("pairs", "check --model a", 0,
     "model of program: no\n"
     "model of completion: no\n"
     "justification (all atoms): skipped (not a model)\n"
     "justification (loop atoms): skipped (not a completion model)\n"
     "copy check: skipped (not a completion model)\n"
     "answer set: no\n",
     ""),
    ("pairs", "check --model a --json", 0,
     '{"schema": 1, "model_of_program": false, '
     '"model_of_completion": false, "justification_all": null, '
     '"justification_loops": null, "copy_check": null, "answer_set": false}\n',
     ""),
    ("pairs", "check --model a,b,c", 0,
     "model of program: yes\n"
     "model of completion: no\n"
     "justification (all atoms): SAT (witness: {b, c})\n"
     "justification (loop atoms): skipped (not a completion model)\n"
     "copy check: skipped (not a completion model)\n"
     "answer set: no\n",
     ""),
    ("pairs", "check --model a,b,c --json", 0,
     '{"schema": 1, "model_of_program": true, '
     '"model_of_completion": false, "justification_all": {"sat": true, '
     '"witness": ["b", "c"]}, "justification_loops": null, '
     '"copy_check": null, "answer_set": false}\n',
     ""),
]

TWO_PAIRS = "a | b.\nc | d.\n"
TIMES = re.compile(r'"(encode|count)_time": [0-9.e-]+')


@pytest.mark.parametrize(
    "program, args, code, out, err", GOLDEN,
    ids=[f"{program}: {args}" for program, args, *_ in GOLDEN],
)
def test_golden_output(capsys, tmp_path, program, args, code, out, err):
    path = tmp_path / "program.lp"
    path.write_text(EXAMPLE1 if program == "worked" else TWO_PAIRS)
    argv = [str(tmp_path / "out") if arg == "DIR" else arg for arg in args.split()]
    got_code, got_out, got_err = run_cli(capsys, argv[0], str(path), *argv[1:])
    got_out = TIMES.sub(r'"\1_time": T', got_out.replace(str(tmp_path), "TMP"))
    assert (got_code, got_out, got_err) == (code, out, err)


# count on k pairs, which split returns as one pair with k copies, prints
# byte for byte what it printed when the pairs were one part: (k, arguments
# after the program's path, exit code, stdout, stderr)
REPEATED_PAIRS = [
    (40, "--mode enumerate --threshold 1000", 0,
     "mode: enumeration (capped)\n"
     "answer sets: 1000\n",
     "note: stopped at limit 1000; count is a lower bound\n"),
    (40, "--mode enumerate --threshold 1000 --json", 0,
     '{"schema": 1, "overcount": 1000, "surplus": 0, "answer_sets": 1000, '
     '"mode": "enumeration", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0, "exhausted": false}\n',
     "note: stopped at limit 1000; count is a lower bound\n"),
    (7, "--mode hybrid --threshold 64", 0,
     "mode: hybrid\n"
     "backend: builtin\n"
     "loop atoms: 0\n"
     "overcount: 128\n"
     "surplus: 0\n"
     "answer sets: 128\n",
     ""),
    (7, "--mode hybrid --threshold 64 --json", 0,
     '{"schema": 1, "overcount": 128, "surplus": 0, "answer_sets": 128, '
     '"mode": "hybrid", "backend": "builtin", "encode_time": T, '
     '"count_time": T, "loop_atom_count": 0}\n',
     ""),
]


@pytest.mark.parametrize(
    "k, args, code, out, err", REPEATED_PAIRS,
    ids=[f"{k} pairs: {args}" for k, args, *_ in REPEATED_PAIRS],
)
def test_repeated_pairs_print_as_one_part(capsys, program_file, k, args, code, out, err):
    got_code, got_out, got_err = run_cli(
        capsys, "count", program_file(pairs_text(k)), *args.split()
    )
    assert (got_code, TIMES.sub(r'"\1_time": T', got_out), got_err) == (code, out, err)
