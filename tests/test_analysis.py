"""Tests for the static analysis layer (CFG, dataflow, lints, bounds).

Four contracts:

* CFG construction is total and consistent on every suite workload
  (blocks partition the instruction stream, edges are symmetric);
* the significance fixpoint terminates on loop-heavy programs and
  bounds every reachable instruction with byte widths in 1..4;
* the lints are clean on minic codegen output (the compiler emits no
  dead writes, unreachable blocks or uninitialized reads) yet each
  lint fires on a synthetic program built to trigger it;
* **soundness**: on every suite workload the static per-operand bound
  is never below the dynamically observed significant-byte count, and
  the cross-check's dynamic totals are bit-identical to the
  :class:`~repro.study.walkers.SchemeBitsWalker` payload the paper
  studies use.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    ANALYSIS_VERSION,
    analyze_program,
    build_cfg,
    crosscheck_records,
    lint_program,
    operand_bounds,
    significance_bounds,
    unwrap_analysis_payload,
    wrap_analysis_payload,
)
from repro.analysis.cfg import reachable_blocks
from repro.analysis.crosscheck import DEFAULT_SCHEMES, scheme_bound_bytes
from repro.analysis.lints import dead_writes, unreachable_blocks, use_before_def
from repro.analysis.tag_table import TagTable
from repro.asm import assemble
from repro.cli import main
from repro.core.compress import UnknownSchemeError, scheme_names
from repro.pipeline.trace_summary import summarize
from repro.study.walkers import build_walker, unwrap_payload, wrap_payload
from repro.workloads import get_workload, mediabench_suite

SUITE = tuple(workload.name for workload in mediabench_suite())

LOOP_HEAVY = ("gsm_toast", "cjpeg")


# ------------------------------------------------------------------ CFG


@pytest.mark.parametrize("name", SUITE)
def test_cfg_construction_suite(name):
    program = get_workload(name).program()
    cfg = build_cfg(program)

    # Blocks partition the instruction stream in address order.
    assert sum(len(block.instructions) for block in cfg.blocks) == len(
        program.text_words
    )
    expected_start = cfg.blocks[0].start
    for block in cfg.blocks:
        assert block.start == expected_start
        expected_start = block.end

    # Edges are symmetric and within range.
    for block in cfg.blocks:
        for successor in block.successors:
            assert block.index in cfg.blocks[successor].predecessors
        for predecessor in block.predecessors:
            assert block.index in cfg.blocks[predecessor].successors

    # The entry reaches every block codegen emits (no dead code).
    assert len(reachable_blocks(cfg)) == len(cfg.blocks)


# ------------------------------------------------- significance fixpoint


@pytest.mark.parametrize("name", LOOP_HEAVY)
def test_fixpoint_terminates_on_loops(name):
    program = get_workload(name).program()
    cfg = build_cfg(program)
    bounds = significance_bounds(cfg)

    reachable = reachable_blocks(cfg)
    reachable_pcs = {
        pc
        for block in cfg.blocks
        if block.index in reachable
        for pc in block.addresses()
    }
    assert set(bounds) == reachable_pcs
    for bound in bounds.values():
        for width in bound.read_bytes:
            assert 1 <= width <= 4
        if bound.write_bytes is not None:
            assert 1 <= bound.write_bytes <= 4


# ---------------------------------------------------------------- lints


@pytest.mark.parametrize("name", SUITE)
def test_codegen_output_is_lint_clean(name):
    assert lint_program(get_workload(name).program()) == []


def test_dead_write_detected():
    program = assemble(
        """
        .text
        main:
            li $t0, 1          # overwritten before any read: dead
            li $t0, 2
            addu $a0, $t0, $zero
            li $v0, 10
            syscall
        """
    )
    findings = dead_writes(build_cfg(program))
    assert [lint.kind for lint in findings] == ["dead-write"]
    assert findings[0].register == 8  # $t0


def test_unreachable_block_detected():
    program = assemble(
        """
        .text
        main:
            j exit
            addiu $t1, $zero, 7    # stranded after the jump
        exit:
            li $v0, 10
            syscall
        """
    )
    findings = unreachable_blocks(build_cfg(program))
    assert len(findings) == 1
    assert findings[0].kind == "unreachable"


def test_use_before_def_detected():
    program = assemble(
        """
        .text
        main:
            addu $a0, $t5, $zero   # $t5 never written on any path
            li $v0, 10
            syscall
        """
    )
    findings = use_before_def(build_cfg(program))
    assert [lint.register for lint in findings] == [13]  # $t5


# ------------------------------------------------------------ soundness


@pytest.mark.parametrize("name", SUITE)
def test_static_bounds_sound_vs_dynamic_walk(name):
    workload = get_workload(name)
    bounds = operand_bounds(workload.program())
    records = workload.trace()

    report = crosscheck_records(bounds, records)
    assert report["ok"], report["violation_samples"]
    assert report["violations"] == 0
    assert report["records"] == len(records)

    # The cross-check's dynamic side is the same quantity the paper's
    # scheme-ablation walker measures — bit-identical, not just close.
    walker = build_walker(("scheme_bits", tuple(report["schemes"])))
    assert report["dynamic_bits"] == walker.reduce(summarize(records))["bits"]

    # Sound: the static total can only be an over-approximation.
    for static, dynamic in zip(report["static_bits"], report["dynamic_bits"]):
        assert static >= dynamic


# ------------------------------------------------- driver + CLI + tools


def test_analysis_payload_envelope_roundtrip():
    data = {"cfg": {"blocks": 1}}
    payload = wrap_analysis_payload(data)
    assert payload["version"] == ANALYSIS_VERSION
    assert unwrap_analysis_payload(payload) == data
    with pytest.raises(ValueError):
        unwrap_analysis_payload(dict(payload, version=ANALYSIS_VERSION + 1))


def test_analyze_summary_shape():
    summary = analyze_program(get_workload("rawcaudio").program())
    assert summary["cfg"]["instructions"] > 0
    assert summary["lints"]["total"] == 0
    histogram = summary["significance"]["read_histogram"]
    assert sum(histogram.values()) == summary["significance"]["read_operands"]


def test_cli_analyze_json(capsys):
    assert main(["analyze", "rawcaudio", "--format", "json"]) == 0
    summaries = json.loads(capsys.readouterr().out)
    assert [s["workload"] for s in summaries] == ["rawcaudio"]
    assert summaries[0]["lints"]["total"] == 0


def test_cli_analyze_crosscheck(capsys):
    assert main(["analyze", "rawcaudio", "--crosscheck"]) == 0
    out = capsys.readouterr().out
    assert "crosscheck: ok" in out


def test_cli_analyze_tags(capsys):
    assert main(["analyze", "rawcaudio", "--tags"]) == 0
    out = capsys.readouterr().out
    assert "tag table:" in out


def test_cli_analyze_crosscheck_json_slack_summary(capsys):
    assert main(
        ["analyze", "rawcaudio", "--crosscheck", "--format", "json"]
    ) == 0
    summary = json.loads(capsys.readouterr().out)[0]
    slack = summary["slack_summary"]
    assert set(slack) == set(DEFAULT_SCHEMES)
    for entry in slack.values():
        assert entry["slack_percent"] >= 0.0
        assert sum(entry["static_histogram"].values()) == sum(
            entry["dynamic_histogram"].values()
        )


def test_cli_list_enumerates_registered_schemes(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    assert "schemes: %s" % ", ".join(scheme_names()) in text
    assert main(["list", "--format", "json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert tuple(listing["schemes"]) == scheme_names()


# ------------------------------------------------ static-byte scheme


def test_scheme_bound_bytes_unknown_scheme_raises():
    with pytest.raises(UnknownSchemeError) as excinfo:
        scheme_bound_bytes(3, "zstd")
    assert "zstd" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)  # catchable as ValueError
    # Known names resolve: block16 rounds up to its halfword granule.
    assert scheme_bound_bytes(3, "block16") == 4
    assert scheme_bound_bytes(3, "byte2") == 3


def test_pc_exec_walker_counts_and_envelope():
    workload = get_workload("synth_small")
    records = workload.trace()
    payload = build_walker(("pc_exec",)).reduce(summarize(records))
    assert sum(count for _, count in payload["execs"]) == len(records)
    pcs = [pc for pc, _ in payload["execs"]]
    assert pcs == sorted(pcs)
    envelope = wrap_payload(("pc_exec",), payload)
    assert unwrap_payload(("pc_exec",), envelope) == payload


def test_broker_tag_table_unit_is_distinct_from_analysis_unit():
    # Regression: AnalysisUnit and TagTableUnit share the (workload,
    # scale) field shape; with plain namedtuple identity the broker
    # memo served the analysis summary dict as a "tag table".
    from repro.study.scheduler import AnalysisUnit, TagTableUnit
    from repro.study.scheduler import ResultBroker
    from repro.study.session import TraceStore

    assert TagTableUnit("w", 1) != AnalysisUnit("w", 1)
    assert TagTableUnit("w", 1) != ("w", 1)
    assert len({TagTableUnit("w", 1), AnalysisUnit("w", 1), ("w", 1)}) == 3

    workload = get_workload("synth_small")
    broker = ResultBroker(TraceStore())
    summary = broker.analysis_summary(workload)
    table = broker.tag_table(workload)
    assert isinstance(summary, dict)
    assert isinstance(table, TagTable)
    # Memoized on repeat, still the right object.
    assert broker.tag_table(workload) is table


def test_check_invariants_tool_passes():
    script = os.path.join(
        os.path.dirname(__file__), os.pardir, "tools", "check_invariants.py"
    )
    result = subprocess.run(
        [sys.executable, script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "all repo invariants hold" in result.stdout
