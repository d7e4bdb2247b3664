"""Tests for the command-line interface and trace persistence."""

import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import repro.verify.differential as differential
from repro.cli import EXPERIMENTS, build_parser, main
from repro.common import ioutil
from repro.common.config import Protocol
from repro.common.errors import ConfigError
from repro.harness.result_cache import reset_session_cache
from repro.verify.tracegen import FuzzTrace
from repro.workloads import make_multithreaded
from repro.workloads.trace import Op, Workload
from repro.workloads.suites import find_profile

from tests.conftest import assert_self_contained, tiny_config

ROOT = Path(__file__).resolve().parent.parent


class TestTracePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        workload = make_multithreaded(find_profile("canneal"),
                                      tiny_config(), 300, seed=9)
        path = tmp_path / "trace.npz"
        workload.save(path)
        loaded = Workload.load(path)
        assert loaded.name == workload.name
        assert loaded.n_cores == workload.n_cores
        for a, b in zip(workload.traces, loaded.traces):
            assert a.core == b.core
            assert np.array_equal(a.ops, b.ops)
            assert np.array_equal(a.addresses, b.addresses)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig19" in out and "PARSEC" in out and "freqmine" in out

    def test_every_experiment_registered(self):
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig17",
                    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
                    "fig24", "fig25", "fig26", "fig27", "contenders",
                    "energy", "multisocket"}
        assert set(EXPERIMENTS) == expected

    def test_demo(self, capsys):
        assert main(["demo", "--app", "swaptions",
                     "--accesses", "500"]) == 0
        out = capsys.readouterr().out
        assert "0 DEVs" in out and "speedup" in out

    def test_run_figure(self, capsys, monkeypatch):
        monkeypatch.chdir  # keep results/ writes relative to repo root
        assert main(["run", "fig19", "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert "ZeroDEV speedup vs baseline" in out
        assert "PARSEC NoDir GEOMEAN" in out

    def test_trace_then_simulate(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        assert main(["trace", "leela", path, "--accesses", "300",
                     "--rate"]) == 0
        for protocol in Protocol:
            assert main(["simulate", path,
                         "--protocol", protocol.value]) == 0, protocol
            out = capsys.readouterr().out
            assert f"under {protocol.value}:" in out
            assert "dev_invalidations" in out
        # DLS has no directory: a ratio is refused, not ignored.
        assert main(["simulate", path, "--protocol", "dls",
                     "--ratio", "0.5"]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1 and "--ratio" in errors[0], errors

    def test_simulate_baseline(self, capsys, tmp_path):
        path = str(tmp_path / "t.npz")
        main(["trace", "povray", path, "--accesses", "200"])
        assert main(["simulate", path, "--protocol", "baseline",
                     "--ratio", "1.0"]) == 0

    def test_parser_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_modelcheck_command(self, capsys):
        assert main(["modelcheck", "--models",
                     "zerodev-fuse-private-spill-shared",
                     "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "zerodev-fuse-private-spill-shared: depth 2/2, " in out
        assert out.endswith("0 counterexample(s)\n")

    def test_modelcheck_baseline(self, capsys):
        assert main(["modelcheck", "--models", "baseline-quarter",
                     "--depth", "2"]) == 0
        assert "baseline-quarter: depth 2/2, " in capsys.readouterr().out

    def test_modelcheck_dls(self, capsys):
        assert main(["modelcheck", "--models", "dls,hybrid",
                     "--depth", "2"]) == 0
        out = capsys.readouterr().out
        assert "dls: depth 2/2, " in out and "hybrid: depth 2/2, " in out
        assert "2 models: " in out

    def test_modelcheck_blocks(self, capsys):
        # --blocks replaces the micro block alphabet: 2 cores x 2 ops x
        # 1 block is 4 symbols, so depth 1 checks 4 transitions.
        assert main(["modelcheck", "--models", "baseline-1x",
                     "--blocks", "0x8", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "baseline-1x: depth 1/1, 5 unique states, " \
               "4 transitions checked" in out

    def test_modelcheck_unknown_model_is_one_error_line(self, capsys):
        # Also every --blocks/--models list that would check nothing,
        # or the same thing twice, while exiting 0.
        cases = [
            (["--models", "baseline-1x,no-such"],
             "unknown model 'no-such'"),
            (["--models", ","], "--models names nothing"),
            (["--models", "baseline-1x,baseline-1x"],
             "--models repeats baseline-1x"),
            (["--models", "baseline-1x", "--blocks", "abc"],
             "--blocks item 'abc' is not an integer"),
            (["--models", "baseline-1x", "--blocks", ","],
             "--blocks names nothing"),
            (["--models", "baseline-1x", "--blocks=-1"],
             "--blocks item '-1' is negative"),
            (["--models", "baseline-1x", "--blocks", "0,0"],
             "--blocks repeats 0"),
            (["--models", "baseline-1x", "--blocks", "8,0x8"],
             "--blocks repeats 8"),
        ]
        for argv, message in cases:
            assert main(["modelcheck", *argv, "--depth", "1"]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            errors = [line for line in captured.err.splitlines()
                      if "error:" in line]
            assert len(errors) == 1, captured.err
            assert message in errors[0], (argv, errors[0])

    def test_modelcheck_counterexample_out_shrinks(self, capsys,
                                                   tmp_path):
        # An armed mutation's counterexample is saved as a FuzzTrace
        # .npz that repro shrink loads; the run itself exits 1.
        model = "zerodev-fuse-private-spill-shared"
        assert main(["modelcheck", "--models", model, "--depth", "3",
                     "--blocks", "0,8,16", "--mutation",
                     "skip-corrupt-restore", "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        path = tmp_path / f"modelcheck-{model}.npz"
        assert f"wrote {path}" in out
        assert "1 counterexample(s)" in out
        trace = FuzzTrace.load(path)
        assert trace.steps == ((0, Op.WRITE.value, 0),
                               (0, Op.READ.value, 8),
                               (0, Op.READ.value, 16))
        # The clean model runs the prefix without a failure.
        assert main(["shrink", str(path), "--model", model]) == 0
        assert "nothing to shrink" in capsys.readouterr().out

    def test_modelcheck_max_states_caps(self, capsys):
        assert main(["modelcheck", "--models", "baseline-1x",
                     "--depth", "4", "--max-states", "20"]) == 0
        out = capsys.readouterr().out
        assert "20 unique states" in out and "(capped)" in out

    def test_modelcheck_jobs(self, capsys):
        # Fork workers share each level; the report is the serial one.
        outputs = []
        for jobs in ("1", "2"):
            assert main(["modelcheck", "--models", "baseline-1x",
                         "--depth", "3", "--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        serial, forked = (re.sub(r"[0-9.]+s\b", "Xs", out)
                          for out in outputs)
        assert "(jobs 2)" in forked
        assert forked.replace(" (jobs 2)", "") == serial

    def test_modelcheck_symmetry(self, capsys):
        assert main(["modelcheck", "--models", "baseline-1x",
                     "--depth", "2", "--symmetry"]) == 0
        assert "(symmetry x" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["verify"], ["verify", "--seed", "3"],
        ["verify", "--protocol", "baseline", "--depth", "2",
         "--samples", "5", "--seed", "3", "--jobs", "2"],
    ], ids=["bare", "seed", "retired-options"])
    def test_verify_without_kernel_diff_is_refused(self, argv, capsys):
        # Bounded-exhaustive checking moved to repro modelcheck, sampled
        # traces to repro fuzz: repro verify names both, in one line.
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1, captured.err
        assert "repro modelcheck --models NAME --depth N" in errors[0]
        assert "repro fuzz" in errors[0]

    def test_unknown_options_elsewhere_still_rejected(self, capsys):
        # Only repro verify without --kernel-diff turns unknown options
        # into its refusal; everywhere else argparse rejects them.
        for argv, unknown in (
                (["verify", "--kernel-diff", "--depth", "2"], "--depth 2"),
                (["modelcheck", "--stats"], "--stats"),
                (["list", "--bogus"], "--bogus")):
            with pytest.raises(SystemExit) as caught:
                main(argv)
            assert caught.value.code == 2
            err = capsys.readouterr().err
            assert f"error: unrecognized arguments: {unknown}\n" in err

    def test_verify_kernel_diff_accepts_seed(self, capsys):
        # CI passes --seed with --kernel-diff; it seeds the campaign.
        assert main(["verify", "--kernel-diff", "--seed", "7",
                     "--budget", "2"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_report_command(self, capsys, monkeypatch):
        # The rebuild publishes through atomic_write_text; capturing that
        # leaves the checkout untouched, and the committed EXPERIMENTS.md
        # must be exactly what the archived results/*.txt tables build.
        written = {}
        monkeypatch.setattr(
            ioutil, "atomic_write_text",
            lambda path, text: written.setdefault(Path(path), text))
        assert main(["report"]) == 0
        assert "EXPERIMENTS.md" in capsys.readouterr().out
        committed = ROOT / "EXPERIMENTS.md"
        assert list(written) == [committed]
        assert written[committed] == committed.read_text(encoding="utf-8")

    def test_bad_input_is_one_error_line(self, capsys, monkeypatch,
                                         tmp_path):
        # An unknown application, a missing trace file, or a file (or a
        # directory) of another kind than the command reads: exit 2
        # with one error: line naming what it reads, no traceback,
        # nothing written.
        make_multithreaded(find_profile("povray"), tiny_config(), 50,
                           seed=1).save(tmp_path / "W.npz")
        (tmp_path / "T.jsonl").write_text(
            '{"kind": "meta", "workload": "povray"}\n', encoding="utf-8")
        (tmp_path / "journal").mkdir()
        inputs = sorted(tmp_path.rglob("*"))
        cases = [
            (["trace", "nosuchapp", "x.npz"],
             "unknown application 'nosuchapp'"),
            (["demo", "--app", "nosuch"], "unknown application 'nosuch'"),
            (["simulate", "missing.npz"], "no such trace: missing.npz"),
            (["shrink", "missing.npz"], "no such trace: missing.npz"),
            (["fuzz", "--budget", "1", "--resume", "journal"],
             "--resume needs a campaign journal file, not a directory: "
             "journal"),
            (["report", "W.npz"],
             "not an event trace or campaign journal: W.npz"),
            (["report", "--html", "W.npz"],
             "not an event trace or campaign journal: W.npz"),
            (["simulate", "T.jsonl"],
             "not a workload trace bundle: T.jsonl"),
            (["shrink", "W.npz"], "not a fuzz trace: W.npz"),
        ]
        monkeypatch.chdir(tmp_path)
        for argv, message in cases:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            errors = [line for line in captured.err.splitlines()
                      if "error:" in line]
            assert len(errors) == 1, captured.err
            assert message in errors[0], (argv, errors[0])
            if "application" in message:
                assert "known applications: " in errors[0]
                assert "freqmine" in errors[0]
            assert sorted(tmp_path.rglob("*")) == inputs, argv

    def test_fuzz_parser_accepts_campaign_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--resume", "j.jsonl", "--run-timeout", "2.5",
             "--retries", "3"])
        assert args.resume == "j.jsonl"
        assert args.run_timeout == 2.5
        assert args.retries == 3

    def test_fuzz_resume_round_trip(self, capsys, tmp_path):
        journal = tmp_path / "fuzz.jsonl"
        argv = ["fuzz", "--seed", "5", "--budget", "2", "--no-shrink",
                "--resume", str(journal)]
        assert main(argv) == 0
        assert main(argv) == 0                 # replay, nothing re-run
        out = capsys.readouterr().out
        assert "runs resumed from journal" in out
        assert main(["report", str(journal)]) == 0
        assert "campaign healthy" in capsys.readouterr().out
        page = tmp_path / "fuzz.html"
        assert main(["report", "--html", str(journal),
                     "--out", str(page)]) == 0
        html = page.read_text(encoding="utf-8")
        assert_self_contained(html)
        assert "campaign healthy" in html
        # 2 traces x 16 models, all replayed on the second invocation.
        assert "<div><b>32</b> resume skips</div>" in html


#: Runs that would verify nothing (or die in int()/NumPy) must be
#: refused up front: exit 2 and one error line naming the bad value.
BAD_NUMBERS = [
    (["verify", "--kernel-diff", "--budget", "0"], {}),
    (["verify", "--kernel-diff", "--steps-per-trace", "0"], {}),
    (["verify", "--kernel-diff", "--check-every", "-1"], {}),
    (["fuzz", "--budget", "0"], {}),
    (["fuzz", "--check-every", "-2"], {}),
    (["modelcheck", "--depth", "-2"], {}),
    (["modelcheck", "--depth", "0"], {}),
    (["modelcheck", "--jobs", "0"], {}),
    (["modelcheck", "--max-states", "0"], {}),
    (["modelcheck", "--budget-s", "-1"], {}),
    (["modelcheck", "--budget-s", "nan"], {}),
    (["modelcheck", "--budget-s", "inf"], {}),
    (["run", "fig19", "--accesses", "0"], {}),
    (["run", "fig19", "--accesses", "1.5"], {}),
    (["run", "fig2"], {"REPRO_ACCESSES": "abc"}),
    (["run", "fig2"], {"REPRO_ACCESSES": "-5"}),
    (["run", "fig2"], {"REPRO_SCALE": "x"}),
    (["fuzz", "--run-timeout", "nan"], {}),
    (["fuzz", "--run-timeout", "-1"], {}),
    (["fuzz", "--jobs", "2", "--run-timeout", "0"], {}),
    (["fuzz", "--retries", "-3"], {}),
    (["run", "fig2"], {"REPRO_RUN_TIMEOUT": "nan"}),
    (["run", "fig2"], {"REPRO_RUN_TIMEOUT": "0"}),
    (["run", "fig2"], {"REPRO_RETRIES": "-1"}),
    (["run", "fig2"], {"REPRO_RUN_TIMEOUT": "soon"}),
    (["run", "fig2"], {"REPRO_RETRIES": "many"}),
    (["demo", "--accesses", "0"], {}),
    (["trace", "canneal", "x.npz", "--accesses", "-5"], {}),
    (["trace", "canneal", "x.jsonl", "--epoch", "0"], {}),
    (["trace", "canneal", "x.npz", "--seed", "-1"], {}),
    (["trace", "canneal", "x.jsonl", "--protocol", "baseline",
      "--ratio", "nan"], {}),
    (["trace", "canneal", "x.jsonl", "--protocol", "baseline",
      "--ratio", "-1"], {}),
    (["trace", "canneal", "x.jsonl", "--ratio", "nan"], {}),
    (["simulate", "x.npz", "--ratio", "-1"], {}),
    (["demo", "--accesses", "-1"], {}),
    (["trace", "canneal", "x.npz", "--accesses", "0"], {}),
    (["trace", "canneal", "x.npz", "--epoch", "-3"], {}),
    (["trace", "canneal", "x.jsonl", "--ratio", "inf"], {}),
    (["trace", "canneal", "x.jsonl", "--protocol", "baseline",
      "--ratio", "inf"], {}),
    (["simulate", "x.npz", "--ratio", "nan"], {}),
    (["simulate", "x.npz", "--ratio", "inf"], {}),
]


class TestNumberValidation:
    @pytest.mark.parametrize(
        "argv, env", BAD_NUMBERS,
        ids=[" ".join(argv + [f"{k}={v}" for k, v in env.items()])
             for argv, env in BAD_NUMBERS])
    def test_rejected_with_one_line_error(self, argv, env, capsys,
                                          monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)     # a command that ran writes here
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        try:
            code = main(argv)
        except SystemExit as exc:        # argparse rejects at parse time
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert "must be a" in errors[0]
        bad = next(iter(env.values()), argv[-1])
        assert repr(bad) in errors[0]
        assert next(iter(env), argv[-2]) in errors[0]   # names the knob

    def test_zero_accepted_where_it_means_something(self, capsys,
                                                    tmp_path):
        # Seed 0 is a seed; ratio 0 is "no directory" under ZeroDEV
        # (and the 1.0 default for the other protocols).
        bundle = str(tmp_path / "t.npz")
        assert main(["trace", "canneal", bundle, "--accesses", "200",
                     "--seed", "0"]) == 0
        assert main(["simulate", bundle, "--ratio", "0"]) == 0
        assert main(["simulate", bundle, "--protocol", "baseline",
                     "--ratio", "0"]) == 0
        assert main(["trace", "canneal", str(tmp_path / "t.jsonl"),
                     "--accesses", "200", "--ratio", "0"]) == 0
        # kernel-diff's --check-every 0 means "no per-step checks" ...
        assert main(["verify", "--kernel-diff", "--budget", "1",
                     "--steps-per-trace", "8", "--check-every", "0"]) == 0
        assert "error:" not in capsys.readouterr().err
        # ... but the fuzz oracle checks after every Nth access, so 0
        # is a usage error there, refused before any trace is made.
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--seed", "1", "--budget", "1",
                  "--check-every", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--check-every" in errors[0], err
        assert "DIVERGENCE" not in err and "Traceback" not in err
        with pytest.raises(ConfigError, match="check_every"), \
                mock.patch.object(differential.TraceGenerator,
                                  "trace") as trace:
            differential.run_campaign(1, 1, check_every=0)
        trace.assert_not_called()

    def test_repro_store_is_one_error_line(self, capsys, monkeypatch,
                                           tmp_path):
        # The retired REPRO_STORE is refused up front, naming the
        # variable that replaced it, and nothing lands in its directory.
        store = tmp_path / "store"
        store.mkdir()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_STORE", str(store))
        reset_session_cache()
        try:
            assert main(["run", "fig19", "--accesses", "300"]) == 2
        finally:
            reset_session_cache()
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1, err
        assert "REPRO_STORE" in errors[0]
        assert "REPRO_CACHE_DIR" in errors[0]
        assert list(store.iterdir()) == []
