"""CLI and cache: exit codes, wire formats, cache coherence."""

from __future__ import annotations

import importlib.util
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import random_form_coeffs
import linforms
from linforms import __version__, cache, engine
from linforms.cli import main
from linforms.engine import compute_nf
from linforms.forms import LinearForm, enumerate_normalized


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _record(coeffs, k, timestamp="t0", tool_version=__version__):
    """A well-formed record; its answer fields are not checked here."""
    return {
        "coeffs": list(coeffs),
        "k": k,
        "diameter": sum(coeffs) * (k - 1),
        "lower": 1,
        "best": 1,
        "exact": True,
        "witnesses": [list(range(k))],
        "timestamp": timestamp,
        "tool_version": tool_version,
    }


def _line(rec):
    return json.dumps(rec).encode("utf-8")


_KEYS = (((1, 2), 3), ((1, 3), 3), ((2, 3), 3))
# One-digit timestamps: rewriting a digit in place can change a record's
# timestamp, or its key, without changing the file's size.
_RECORDS = st.builds(
    lambda key, stamp, current: _record(
        *_KEYS[key], f"t{stamp}", __version__ if current else "0.0.0"
    ),
    st.integers(0, len(_KEYS) - 1),
    st.integers(0, 9),
    st.booleans(),
)
_CHANGES = st.one_of(
    st.tuples(st.just("append"), _RECORDS),
    st.tuples(st.just("corrupt"), st.binary(max_size=12)),
    # Lines are about 150 bytes, so a quarter of the fragments are a whole
    # record with no newline.
    st.tuples(st.just("fragment"), _RECORDS, st.integers(1, 200)),
    st.tuples(st.just("complete")),
    st.tuples(st.just("truncate"), st.integers(0, 10**4)),
    st.tuples(st.just("rewrite"), st.integers(0, 10**4), st.sampled_from(b"0123456789\n")),
    st.tuples(st.just("replace"), st.lists(_RECORDS, max_size=3)),
    st.tuples(st.just("crlf"), _RECORDS),
    st.tuples(st.just("delete")),
)


class TestCacheModule:
    def test_round_trip(self, tmp_path):
        res = compute_nf(LinearForm((1, 3)), 3)
        rec = {**cache.record_from_result(res), "timestamp": "2026-01-01T00:00:00+00:00"}
        path = tmp_path / "c.jsonl"
        cache.append_record(path, rec)
        loaded = cache.load_records(path)
        assert loaded == [rec]
        assert cache.record_from_json(rec) == rec

    def test_json_field_order(self):
        res = compute_nf(LinearForm((1, 3)), 3)
        rec = {**cache.record_from_result(res), "timestamp": "t"}
        order = [
            "coeffs",
            "k",
            "diameter",
            "lower",
            "best",
            "exact",
            "witnesses",
            "timestamp",
            "tool_version",
        ]
        assert list(rec) == order
        # A parsed record takes the file order and drops any other key.
        reordered = {"extra": 1, **dict(reversed(rec.items()))}
        assert list(cache.record_from_json(reordered)) == order
        assert cache.record_from_json(reordered) == rec

    def test_last_record_wins(self, tmp_path):
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        first = {**cache.record_from_result(res), "timestamp": "t1"}
        second = {**cache.record_from_result(res), "timestamp": "t2"}
        cache.append_record(path, first)
        cache.append_record(path, second)
        hit = cache.lookup(path, (1, 3), 3, res.diameter_searched)
        assert hit is not None and hit["timestamp"] == "t2"

    def test_missing_file_and_miss(self, tmp_path):
        assert cache.load_records(tmp_path / "absent.jsonl") == []
        assert cache.lookup(tmp_path / "absent.jsonl", (1, 3), 3, 8) is None

    def test_corrupt_lines_skipped(self, tmp_path, capsys):
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        cache.append_record(path, {**cache.record_from_result(res), "timestamp": "t"})
        with open(path, "a") as fh:
            fh.write("{broken\n")
            fh.write('{"coeffs": [1, 2]}\n')  # parseable JSON, wrong shape
        loaded = cache.load_records(path)
        assert len(loaded) == 1
        warnings = capsys.readouterr().err
        assert warnings.count("skipping corrupt cache line") == 2

    @pytest.mark.parametrize(
        "raw",
        ["[[1]]", "5", json.dumps(" ".join(cache._FIELDS)), "[1, 2]"],
        ids=["nested-list", "number", "string-of-field-names", "list"],
    )
    def test_non_object_line_skipped(self, tmp_path, capsys, raw):
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        rec = {**cache.record_from_result(res), "timestamp": "t"}
        path.write_text(json.dumps(rec) + "\n" + raw + "\n", encoding="utf-8")
        assert cache.load_records(path) == [rec]
        assert capsys.readouterr().err == (
            f"warning: {path}:2: skipping corrupt cache line (cache record is not a JSON object)\n"
        )

    @pytest.mark.parametrize(
        "field, raw",
        [
            ("k", "1e400"),
            ("k", "true"),
            ("best", "7.9"),
            ("exact", '"false"'),
            ("coeffs", '"13"'),
            ("witnesses", "[[0, 1.0, 3]]"),
            ("timestamp", "7"),
        ],
    )
    def test_mistyped_field_skipped(self, tmp_path, capsys, field, raw):
        # A value of the wrong JSON type is never coerced into a record.
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        rec = {**cache.record_from_result(res), "timestamp": "t"}
        good = json.dumps(rec)
        bad = json.dumps({**rec, field: None}).replace(
            f'"{field}": null', f'"{field}": {raw}'
        )
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        assert main(["cache-dump", "--cache", str(path)]) == 0
        out, err = capsys.readouterr()
        assert out == good + "\n"
        assert f"c.jsonl:2: skipping corrupt cache line (cache field {field} is not" in err
        assert cache.lookup(path, (1, 3), 3, rec["diameter"]) == rec

    def test_other_version_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        old = {**cache.record_from_result(res), "tool_version": "0.0.0"}
        cache.append_record(path, old)
        assert cache.lookup(path, (1, 3), 3, res.diameter_searched) is None
        current = cache.record_from_result(res)
        cache.append_record(path, current)
        assert cache.lookup(path, (1, 3), 3, res.diameter_searched) == current
        cache.append_record(path, old)  # a later stale record does not shadow it
        assert cache.lookup(path, (1, 3), 3, res.diameter_searched) == current

    def test_index_sees_appends(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert cache.lookup(path, (1, 3), 3, 8) is None
        res = compute_nf(LinearForm((1, 3)), 3)
        rec = {**cache.record_from_result(res), "timestamp": "t1"}
        cache.append_record(path, rec)
        assert cache.lookup(path, (1, 3), 3, 8) == rec
        # Another writer, without the lock, within the same modification
        # time tick: only the size tells.
        res = compute_nf(LinearForm((1, 2)), 3)
        other = {**cache.record_from_result(res), "timestamp": "t2"}
        st = path.stat()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(other) + "\n")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert cache.lookup(path, (1, 2), 3, 6) == other
        assert cache.lookup(path, (1, 3), 3, 8) == rec

    def test_index_reloads_truncated_or_replaced(self, tmp_path):
        path = tmp_path / "c.jsonl"
        res = compute_nf(LinearForm((1, 3)), 3)
        first = {**cache.record_from_result(res), "timestamp": "t1"}
        cache.append_record(path, first)
        assert cache.lookup(path, (1, 3), 3, 8) == first
        path.write_text("")  # truncated in place
        assert cache.lookup(path, (1, 3), 3, 8) is None
        cache.append_record(path, first)
        assert cache.lookup(path, (1, 3), 3, 8) == first
        # Rewritten in place: same inode and size, a later modification time.
        second = {**first, "timestamp": "t2"}
        stamp = path.stat().st_mtime_ns
        with open(path, "r+", encoding="utf-8") as fh:
            fh.write(json.dumps(second) + "\n")
        os.utime(path, ns=(stamp, stamp + 10**9))
        assert cache.lookup(path, (1, 3), 3, 8) == second
        # Replaced by another file: same size and modification time.
        third = {**first, "timestamp": "t3"}
        fresh = tmp_path / "new.jsonl"
        cache.append_record(fresh, third)
        os.utime(fresh, ns=(stamp, stamp + 10**9))
        fresh.replace(path)
        assert cache.lookup(path, (1, 3), 3, 8) == third
        path.unlink()
        assert cache.lookup(path, (1, 3), 3, 8) is None

    @pytest.mark.parametrize(
        "bad", [b"\xff\xfe garbage", b"[" * 100_000], ids=["non-utf8", "deep-nesting"]
    )
    def test_undecodable_line_skipped(self, tmp_path, capsys, bad):
        path = tmp_path / "c.jsonl"
        rec = _record((1, 3), 3)
        cache.append_record(path, rec)
        assert cache.lookup(path, (1, 3), 3, 8) == rec
        with open(path, "ab") as fh:
            fh.write(bad + b"\n")
        assert cache.lookup(path, (1, 3), 3, 8) == rec
        err = capsys.readouterr().err
        assert err.count("skipping corrupt cache line") == 1
        assert f"{path}:2: skipping corrupt cache line" in err

    def test_append_after_fragment(self, tmp_path, capsys):
        """An interrupted line does not swallow the next appended record."""
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"coeffs": [1')
        rec = _record((1, 3), 3)
        cache.append_record(path, rec)
        assert cache.lookup(path, (1, 3), 3, 8) == rec
        assert capsys.readouterr().err.count("skipping corrupt cache line") == 1
        assert path.read_bytes() == b'{"coeffs": [1\n' + _line(rec) + b"\n"

    def test_append_parses_only_new_lines(self, tmp_path, monkeypatch):
        """292 pre-filled lines and 16 appends cost 308 record parses."""
        path = tmp_path / "c.jsonl"
        prefill = [_record((1, c), k) for c in range(2, 75) for k in (2, 3, 4, 5)]
        assert len(prefill) == 292
        path.write_bytes(b"".join(_line(rec) + b"\n" for rec in prefill))
        parse = cache.record_from_json
        parsed = []
        monkeypatch.setattr(cache, "record_from_json", lambda obj: parsed.append(1) or parse(obj))
        assert cache.lookup(path, (1, 2), 2, 3) == prefill[0]
        for c in range(3, 19):
            rec = _record((2, c), 3)
            assert cache.lookup(path, (2, c), 3, rec["diameter"]) is None
            cache.append_record(path, rec)
            assert cache.lookup(path, (2, c), 3, rec["diameter"]) == rec
        assert len(parsed) == 308

    @given(st.lists(_CHANGES, max_size=12))
    # A whole record with no newline is read, then glued to a bad line.
    @example([("fragment", _record(*_KEYS[0]), 200), ("corrupt", b"x")])
    def test_index_equals_full_reparse(self, changes):
        """After any sequence of file changes, lookups agree with a full re-parse."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            rest = b""  # what completes the last fragment written
            # The index notices a change by the file's stamp; modification
            # times tick coarsely, so each change moves the time forward.
            mtime = 10**18
            for change in changes:
                op, args = change[0], change[1:]
                if op == "append":
                    cache.append_record(path, args[0])
                elif op == "corrupt":
                    with open(path, "ab") as fh:
                        fh.write(args[0] + b"\n")
                elif op == "fragment":
                    line = _line(args[0]) + b"\n"
                    cut = min(args[1], len(line) - 1)
                    with open(path, "ab") as fh:
                        fh.write(line[:cut])
                    rest = line[cut:]
                elif op == "complete":
                    with open(path, "ab") as fh:
                        fh.write(rest)
                    rest = b""
                elif op == "truncate" and path.exists():
                    os.truncate(path, args[0] % (path.stat().st_size + 1))
                elif op == "rewrite" and path.exists() and path.stat().st_size:
                    with open(path, "r+b") as fh:
                        fh.seek(args[0] % path.stat().st_size)
                        fh.write(bytes([args[1]]))
                elif op == "replace":
                    fresh = Path(tmp) / "fresh.jsonl"
                    fresh.write_bytes(b"".join(_line(rec) + b"\n" for rec in args[0]))
                    fresh.replace(path)
                elif op == "crlf":
                    with open(path, "ab") as fh:
                        fh.write(_line(args[0]) + b"\r\n")
                elif op == "delete" and path.exists():
                    path.unlink()
                if path.exists():
                    mtime += 10**9
                    os.utime(path, ns=(mtime, mtime))
                expected = {
                    (tuple(r["coeffs"]), r["k"], r["diameter"]): r
                    for r in cache.load_records(path)
                    if r["tool_version"] == __version__
                }
                for coeffs, k in _KEYS:
                    key = (coeffs, k, sum(coeffs) * (k - 1))
                    assert cache.lookup(path, *key) == expected.get(key)

    def test_coherence_randomized(self, tmp_path):
        """A cache hit equals recomputation on 100 randomized probes."""
        rng = random.Random(42)
        path = tmp_path / "c.jsonl"
        probes = []
        while len(probes) < 100:
            coeffs = random_form_coeffs(rng, max_m=2, max_coeff=5)
            k = rng.randint(1, 3)
            probes.append((coeffs, k))
        for coeffs, k in probes:
            res = compute_nf(LinearForm(coeffs), k)
            rec = cache.lookup(path, coeffs, k, res.diameter_searched)
            if rec is None:
                rec = cache.record_from_result(res)
                cache.append_record(path, rec)
            stamp = {"timestamp": rec["timestamp"], "tool_version": rec["tool_version"]}
            assert rec == {**cache.record_from_result(res), **stamp}


class TestCliNf:
    def test_human(self, capsys):
        code, out, _ = run(capsys, "nf", "--coeffs", "1,2,3", "--k", "4")
        assert code == 0
        assert "min distinct values = 19 (exact)" in out
        assert "minimizer {0,1,2,3}" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["best"] == 8 and obj["exact"] is True
        assert obj["witnesses"] == [[0, 1, 3], [0, 1, 4]]
        assert obj["certificate"] == {"nf2": 4, "nf3": 8, "splits": [None, None, None]}

    def test_short_list_is_not_marked(self, capsys):
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "1")
        assert code == 0
        assert out.splitlines()[-1] == "  minimizer {0}"

    def test_bracket_human(self, capsys):
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "4")
        assert code == 0
        assert "bracket [11,12]" in out

    def test_invalid_input_exit_2(self, capsys):
        code, _, err = run(capsys, "nf", "--coeffs", "1,0", "--k", "2")
        assert code == 2
        assert "error:" in err

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "nf", "--coeffs", "1,3", "--k", "4", "--budget-nodes", "5")
        assert code == 3
        assert "budget" in err

    def test_witness_cap_exit_3_writes_no_cache_line(self, capsys, tmp_path, monkeypatch):
        # Every 3-set within diameter 8 minimizes (1): 11 witnesses,
        # over a cap patched down to 10, so nothing reaches the cache.
        per = engine._witness_bytes(3, 8)
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 10 * per)
        path = tmp_path / "c.jsonl"
        argv = ("nf", "--coeffs", "1", "--k", "3", "--diameter", "8", "--cache", str(path))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        need = f"11 witnesses of 3 elements would need {11 * per} bytes (cap {10 * per})"
        assert err == f"error: {need}\n"
        assert not path.exists()

    def test_negative_budget_exit_2(self, capsys):
        code, out, err = run(capsys, "nf", "--coeffs", "1,3", "--k", "4", "--budget-nodes", "-1")
        assert (code, out) == (2, "")
        assert err == "error: need a node budget >= 0, got -1\n"

    def test_bad_cache_path_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "c.jsonl"
        code, out, err = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: cache file {path}: No such file or directory\n"
        code, _, err = run(capsys, "cache-dump", "--cache", str(tmp_path))
        assert code == 2 and err.startswith(f"error: cache file {tmp_path}: ")

    def test_missing_args_exit_2(self, capsys):
        assert run(capsys, "nf", "--coeffs", "1,3")[0] == 2
        assert run(capsys, "bogus")[0] == 2

    def test_parser_reused_across_calls(self, capsys):
        bad = ("nf", "--coeffs", "1,3")
        code, out, err = run(capsys, *bad)
        assert (code, out) == (2, "")
        assert err.startswith("usage: linforms nf") and "--k" in err
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--json")
        assert code == 0
        assert json.loads(out) == compute_nf(LinearForm((1, 3)), 3).to_json()
        assert run(capsys, *bad) == (2, "", err)

    def test_ladder_flag(self, capsys):
        # --ladder is accepted and ignored: every certificate uses every base value.
        for json_flag in ((), ("--json",)):
            args = ("nf", "--coeffs", "1,3", "--k", "4", *json_flag)
            code, out, err = run(capsys, *args, "--ladder", "2")
            assert (code, out, err) == run(capsys, *args)
        assert json.loads(out)["lower"] == 11


class TestCliMf:
    def test_human(self, capsys):
        # The value is a count of mass vectors; the line claims no image
        # of the witness was measured.
        code, out, _ = run(capsys, "mf", "--coeffs", "1,2,4", "--k", "3")
        assert code == 0
        assert out == (
            "coeffs (1,2,4)  k=3: max distinct values = 27 (mass vectors, counted by orbits), "
            "attained by {1,13,169} (base 13)\n"
        )

    def test_all_ones(self, capsys):
        code, out, _ = run(capsys, "mf", "--coeffs", "1,1", "--k", "4")
        assert code == 0 and "= 10" in out

    def test_single_coeff(self, capsys):
        code, out, _ = run(capsys, "mf", "--coeffs", "1", "--k", "7")
        assert code == 0 and "= 7" in out

    def test_json(self, capsys):
        _, out, _ = run(capsys, "mf", "--coeffs", "1,2,4", "--k", "3", "--json")
        obj = json.loads(out)
        assert obj == {
            "coeffs": [1, 2, 4],
            "k": 3,
            "value": 27,
            "base": 13,
            "witness": [1, 13, 169],
        }


class TestCliHugeK:
    """Huge-k refusals exit 3: no huge count is printed in decimal digits (str() refuses
    ints of over 4,300 digits), and nf refuses before its O(k^2) certificate."""

    @pytest.mark.parametrize(
        "command,k,err",
        [
            ("mf", 7000, "|f| can reach a value of 7000 or more bits, beyond signed 64-bit range"),
            ("spectrum", 6000, "over 2^16519 candidate sets exceed the spectrum budget 1000000"),
            ("nf", 6000, "search masks would need 15226182018 bits (cap 10000000)"),
        ],
        ids=["mf", "spectrum", "nf"],
    )
    def test_exit_3(self, capsys, command, k, err):
        assert run(capsys, command, "--coeffs", "1,2", "--k", str(k)) == (3, "", f"error: {err}\n")


class TestCliMinimizersSpectrum:
    def test_minimizers(self, capsys):
        code, out, _ = run(capsys, "minimizers", "--coeffs", "1,2", "--k", "5")
        assert code == 0
        assert "{0,1,2,3,4}" in out

    def test_minimizers_open_bracket_exit_2(self, capsys):
        code, _, err = run(capsys, "minimizers", "--coeffs", "1,3", "--k", "4")
        assert code == 2 and "bracket" in err

    def test_spectrum_json(self, capsys):
        _, out, _ = run(
            capsys, "spectrum", "--coeffs", "1,3", "--k", "3", "--diameter", "9", "--json"
        )
        obj = json.loads(out)
        assert obj["values"] == [8, 9]
        assert obj["is_interval"] is True


class TestCliVerify:
    def test_single_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "thm41", "--max-m", "3", "--max-coeff", "4", "--max-k", "5"
        )
        assert code == 0
        assert "suite thm41" in out and "passed" in out

    def test_all_suites_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--json")
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["suite"] for r in reports] == [
            "thm23",
            "thm31",
            "lem32",
            "thm41",
            "mf_bounds",
        ]
        assert all(r["passed"] for r in reports)

    @pytest.mark.parametrize("flag", ["--max-m", "--max-coeff", "--max-k"])
    def test_empty_bounds_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "verify", "--json", flag, "0")
        assert (code, out) == (2, "")
        assert "need max_m, max_coeff, max_k >= 1" in err

    @pytest.mark.parametrize("suite", ["all", "lem32"])
    def test_diameter_below_max_k_exit_2(self, capsys, suite):
        # Diameter 1 holds k = 2 sets but not k = 3 ones: refused before
        # the first report, even by lem32, which searches no sets.
        code, out, err = run(
            capsys, "verify", "--suite", suite, "--max-m", "1", "--diameter", "1", "--max-k", "3"
        )
        assert (code, out) == (2, "")
        assert err == "error: diameter 1 cannot hold 3 distinct integers\n"

    def test_failing_suite_exit_1(self, capsys, monkeypatch):
        from linforms import theory

        def fake(bounds):
            return [(LinearForm((1, 1, 1)), 2)], lambda f, k: ["forced"]

        monkeypatch.setitem(theory._SUITES, "lem32", fake)
        code, out, _ = run(capsys, "verify", "--suite", "lem32")
        assert code == 1
        assert "FAILED" in out and "forced" in out

    def test_budget_bounds_the_run(self, capsys, monkeypatch):
        # At the default bounds the suites check 27, 24, 15, 36 and 88
        # instances: each fits a budget of 88, but the run of 190 does not.
        # It is refused before the first check, with nothing on stdout.
        from linforms import theory

        monkeypatch.setattr(theory, "INSTANCE_BUDGET", 88)
        code, out, _ = run(capsys, "verify", "--suite", "mf_bounds")
        assert (code, out) == (0, "suite mf_bounds: checked 88, passed\n")

        def no_check(*args, **kwargs):
            raise AssertionError("checked before the budget check")

        monkeypatch.setattr(theory, "compute_nf", no_check)
        monkeypatch.setattr(theory, "compute_mf", no_check)
        code, out, err = run(capsys, "verify")
        assert (code, out) == (3, "")
        assert err == "error: suites would touch more than 88 instances\n"

    def test_real_budget_refuses_a_run_of_fitting_suites(self, capsys, monkeypatch):
        # 116,969 instances in all; the largest suite, mf_bounds, has 82,746.
        from linforms import theory

        def no_check(*args, **kwargs):
            raise AssertionError("checked before the budget check")

        monkeypatch.setattr(theory, "compute_nf", no_check)
        monkeypatch.setattr(theory, "compute_mf", no_check)
        code, out, err = run(capsys, "verify", "--max-m", "4", "--max-coeff", "30", "--max-k", "2")
        assert (code, out) == (3, "")
        assert err == "error: suites would touch more than 100000 instances\n"


class TestCliScan:
    def test_jsonl_and_statuses(self, capsys):
        code, out, err = run(
            capsys, "scan", "--problem", "all", "--max-m", "2", "--max-coeff", "4", "--max-k", "3"
        )
        assert code == 0
        findings = [json.loads(line) for line in out.splitlines()]
        assert findings, "scan emitted nothing"
        assert all(
            f["status"] in {"consistent", "inconclusive"} for f in findings
        )
        assert "scan done" in err

    @pytest.mark.parametrize("status", ["candidate-counterexample", "theorem-conflict"])
    def test_alarming_finding_exit_1(self, capsys, monkeypatch, status):
        from linforms import explorer

        forms, real = explorer._PROBLEMS["completeness"]

        def fake(*args):
            return status, real(*args)[1]

        monkeypatch.setitem(explorer._PROBLEMS, "completeness", (forms, fake))
        code, out, err = run(
            capsys, "scan", "--problem", "completeness", "--max-m", "2", "--max-k", "2"
        )
        assert code == 1
        assert out and all(json.loads(line)["status"] == status for line in out.splitlines())
        assert status in err

    @pytest.mark.parametrize("flag,value", [("--max-m", "0"), ("--max-coeff", "0"), ("--max-k", "1")])
    def test_empty_bounds_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "scan", flag, value)
        assert (code, out) == (2, "")
        assert "need --max-m, --max-coeff >= 1 and --max-k >= 2" in err

    def test_diameter_below_max_k_refused_before_any_search(self, capsys, monkeypatch):
        # Diameter 1 holds k = 2 sets but not k = 3 ones: the whole run is
        # refused up front, not after printing its k = 2 findings.
        from linforms import explorer

        def no_search(*args, **kwargs):
            raise AssertionError("searched before the diameter check")

        monkeypatch.setattr(explorer, "compute_nf", no_search)
        args = ("scan", "--diameter", "1", "--max-m", "2", "--max-coeff", "2")
        code, out, err = run(capsys, *args, "--max-k", "3")
        assert (code, out) == (2, "")
        assert err == "error: diameter 1 cannot hold 3 distinct integers\n"

    def test_no_findings_summary(self, capsys):
        args = ("scan", "--problem", "completeness", "--max-m", "1", "--max-coeff", "1")
        code, out, err = run(capsys, *args, "--max-k", "2")
        assert (code, out) == (0, "")
        assert err == "scan done: no findings\n"

    def test_smallest_bounds_run(self, capsys):
        code, out, err = run(capsys, "scan", "--max-m", "1", "--max-coeff", "1", "--max-k", "2")
        assert code == 0
        assert [json.loads(line)["coeffs"] for line in out.splitlines()] == [[1]]
        assert err == "scan done: 1 consistent\n"

    def test_budget_bounds_the_run(self, capsys, monkeypatch):
        # (2, 4) has 4 incomplete normalized forms, so one slice (m, k)
        # fits a budget of 5, but the run over k = 2 and 3 walks 8: it is
        # refused before the first search, with nothing on stdout.
        from linforms import explorer

        monkeypatch.setattr(explorer, "SCAN_BUDGET", 5)
        args = ("scan", "--problem", "completeness", "--max-m", "2", "--max-coeff", "4")
        code, out, err = run(capsys, *args, "--max-k", "2")
        assert (code, len(out.splitlines())) == (0, 4)

        def no_search(*args, **kwargs):
            raise AssertionError("searched before the budget check")

        monkeypatch.setattr(explorer, "compute_nf", no_search)
        code, out, err = run(capsys, *args, "--max-k", "3")
        assert (code, out) == (3, "")
        assert err == "error: scan would walk more than 5 forms\n"

    def test_each_slice_enumerated_once(self, capsys, monkeypatch):
        # The run budget and the searches share one walk of each slice's forms.
        from linforms import explorer

        calls = []

        def counted_forms(*args):
            calls.append(args)
            return enumerate_normalized(*args)

        monkeypatch.setattr(explorer, "enumerate_normalized", counted_forms)
        code, out, _ = run(capsys, "scan", "--max-m", "2", "--max-coeff", "4", "--max-k", "3")
        assert code == 0 and out
        assert calls == [(m, 4) for _ in range(2) for m in (1, 2) for k in (2, 3)]

    def test_deterministic(self, capsys):
        args = ("scan", "--max-m", "2", "--max-coeff", "5", "--max-k", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestCliCache:
    def test_miss_then_hit(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        assert code == 0 and "computed" in out
        code, out, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        assert code == 0 and "cache hit" in out

    def test_hit_matches_recomputation(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        _, cached, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path, "--json")
        _, fresh, _ = run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--json")
        cached_obj, fresh_obj = json.loads(cached), json.loads(fresh)
        for field in ("coeffs", "k", "diameter", "lower", "best", "exact", "witnesses"):
            assert cached_obj[field] == fresh_obj[field]

    def test_cache_dump(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        run(capsys, "nf", "--coeffs", "1,2", "--k", "4", "--cache", path)
        code, out, _ = run(capsys, "cache-dump", "--cache", path)
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["coeffs"] for r in rows] == [[1, 3], [1, 2]]

    def test_cache_dump_skips_non_utf8(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        code, out, err = run(capsys, "cache-dump", "--cache", path)
        assert code == 0
        assert err.count("skipping corrupt cache line") == 1
        assert [json.loads(line)["coeffs"] for line in out.splitlines()] == [[1, 3]]

    def test_corrupt_line_warns_once(self, tmp_path, capsys):
        """Appends re-read only their own lines, so an old bad line warns once."""
        path = tmp_path / "c.jsonl"
        path.write_text("{broken\n")
        warnings = 0
        for coeffs in ("1,2", "1,3", "1,4", "2,3"):
            code, out, err = run(capsys, "nf", "--coeffs", coeffs, "--k", "3", "--cache", str(path))
            assert code == 0 and "computed" in out
            warnings += err.count("skipping corrupt cache line")
        assert warnings == 1

    def test_ladder_miss_stores_the_full_certificate(self, tmp_path, capsys):
        # A --ladder 2 miss stores what a default run computes, so a later
        # default request is served the exact 8 of (1,3) at k = 3.
        path = str(tmp_path / "c.jsonl")
        args = ("nf", "--coeffs", "1,3", "--k", "3", "--cache", path, "--json")
        code, _, _ = run(capsys, *args, "--ladder", "2")
        assert code == 0
        code, out, _ = run(capsys, *args)
        rec = json.loads(out)
        assert code == 0 and (rec["lower"], rec["best"], rec["exact"]) == (8, 8, True)

    def test_capped_list_is_the_same_fresh_miss_and_hit(self, tmp_path, capsys):
        # (1) at k = 4 within 20 has 530 minimizers: every answer shows the
        # same first 64, the text marks each, and the file keeps all 530.
        args = ("nf", "--coeffs", "1", "--k", "4", "--diameter", "20")
        path = str(tmp_path / "c.jsonl")
        texts = [run(capsys, *args)] + [run(capsys, *args, "--cache", path) for _ in range(2)]
        assert [code for code, _, _ in texts] == [0, 0, 0]
        assert "(exact; computed)" in texts[1][1] and "(exact; cache hit)" in texts[2][1]
        minimizers = [[ln for ln in out.splitlines() if "minimizer" in ln] for _, out, _ in texts]
        assert minimizers[0] == minimizers[1] == minimizers[2]
        assert len(minimizers[0]) == 64
        assert minimizers[0][0] == "  minimizer {0,1,2,3} (list capped)"
        assert all(line.endswith("} (list capped)") for line in minimizers[0])
        (record,) = cache.load_records(path)
        assert len(record["witnesses"]) == 530

        json_path = str(tmp_path / "j.jsonl")
        answers = [run(capsys, *args, "--json")]
        answers += [run(capsys, *args, "--json", "--cache", json_path) for _ in range(2)]
        witnesses = [json.loads(out)["witnesses"] for _, out, _ in answers]
        assert witnesses[0] == witnesses[1] == witnesses[2]
        assert witnesses[0] == record["witnesses"][:64]

    def test_hit_over_the_witness_cap_is_refused(self, tmp_path, capsys, monkeypatch):
        # (1) at k = 4 within 20 has 530 minimizers.  With the cap patched
        # down to hold exactly 530 the record is served; one byte less, and
        # the hit is refused as a fresh run is, with the kernel's message.
        args = ("nf", "--coeffs", "1", "--k", "4", "--diameter", "20", "--json")
        path = tmp_path / "c.jsonl"
        code, stored, _ = run(capsys, *args, "--cache", str(path))
        assert code == 0 and len(cache.load_records(path)[0]["witnesses"]) == 530
        before = path.read_bytes()
        per = engine._witness_bytes(4, 20)
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 530 * per)
        assert run(capsys, *args, "--cache", str(path)) == (0, stored, "")
        monkeypatch.setattr(engine, "WITNESS_BYTES_CAP", 530 * per - 1)
        need = f"error: 530 witnesses of 4 elements would need {530 * per} bytes"
        need += f" (cap {530 * per - 1})\n"
        assert run(capsys, *args, "--cache", str(path)) == (3, "", need)
        engine.clear_search_memo()
        assert run(capsys, *args) == (3, "", need)
        assert path.read_bytes() == before

    def test_hit_refuses_a_negative_budget(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        args = ("nf", "--coeffs", "1,3", "--k", "4", "--cache", path)
        assert run(capsys, *args)[0] == 0
        code, out, err = run(capsys, *args, "--budget-nodes", "-1")
        assert (code, out) == (2, "")
        assert err == "error: need a node budget >= 0, got -1\n"

    def test_hit_refuses_k0(self, tmp_path, capsys):
        # A hand-written record under the key a --k 0 request would look up.
        path = tmp_path / "c.jsonl"
        rec = {**_record((1, 3), 1), "k": 0, "diameter": -4, "witnesses": [[]]}
        cache.append_record(path, rec)
        assert cache.lookup(path, (1, 3), 0, -4) == rec
        code, out, err = run(capsys, "nf", "--coeffs", "1,3", "--k", "0", "--cache", str(path))
        assert (code, out) == (2, "")
        assert err == "error: need k >= 1, got 0\n"

    def test_benchmark_prefill_is_served(self, tmp_path, capsys):
        # The benchmark pre-fills its cache with bench/workloads.py
        # prefill_lines, loaded here from its file; each line must be a hit.
        spec = importlib.util.spec_from_file_location(
            "_bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        prefill = workloads.cached_plan(tiny=True)[1][:2]
        answers = workloads.load_reference("nf-cached")["answers"]
        path = tmp_path / "c.jsonl"
        path.write_text(workloads.prefill_lines(prefill, answers), encoding="utf-8")
        before = path.read_bytes()
        for op, line in zip(prefill, before.decode("utf-8").splitlines(keepends=True)):
            code, out, err = run(capsys, *workloads.cli_args(op, str(path)))
            assert (code, out, err) == (0, line, "")
        assert path.read_bytes() == before

    def test_different_diameter_misses(self, tmp_path, capsys):
        path = str(tmp_path / "c.jsonl")
        run(capsys, "nf", "--coeffs", "1,3", "--k", "3", "--cache", path)
        code, out, _ = run(
            capsys, "nf", "--coeffs", "1,3", "--k", "3", "--diameter", "9", "--cache", path
        )
        assert code == 0 and "computed" in out


class TestCliClosedStdout:
    @pytest.mark.parametrize(
        "argv",
        [("verify",), ("scan", "--max-m", "2", "--max-coeff", "8", "--max-k", "3")],
        ids=["verify", "scan"],
    )
    def test_exit_141(self, argv):
        # The reader closes stdout before reading. The scan prints about
        # 16 kB, more than stdout buffers, so it meets the closed pipe
        # before its summary line on stderr.
        env = {**os.environ, "PYTHONPATH": str(Path(linforms.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "linforms.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert (proc.wait(), err) == (141, b"")

    @pytest.mark.parametrize("argv", [("--help",), ("nf", "--help")], ids=["help", "nf-help"])
    def test_help_exit_141(self, argv):
        # Help text waits in stdout's buffer for main's flush, which meets
        # the closed pipe.  (Unbuffered, argparse drops the failed write.)
        env = {**os.environ, "PYTHONPATH": str(Path(linforms.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "linforms.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert (proc.wait(), err) == (141, b"")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "--coeffs", "1,3", "--k", "3", "--json"),
            ("mf", "--coeffs", "1,2", "--k", "4", "--json"),
            ("spectrum", "--coeffs", "1,2", "--k", "3", "--json"),
            ("minimizers", "--coeffs", "1,2", "--k", "4", "--json"),
        ],
    )
    def test_json_reserialization_stable(self, capsys, argv):
        _, out, _ = run(capsys, *argv)
        obj = json.loads(out)
        assert json.dumps(obj) == out.strip()
