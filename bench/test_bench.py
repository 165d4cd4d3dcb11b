"""Tests of the benchmark itself: seeded inputs, failure counting, percentiles."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


class SmallSurvey(workloads.Survey5k):
    respondents = 40


class SmallCatalog(workloads.Catalog4k):
    controls = 300


@pytest.mark.parametrize(
    "kind", [workloads.CliCompanyA, SmallSurvey, SmallCatalog, workloads.ModelSweep], ids=lambda k: k.name
)
def test_generated_inputs_depend_only_on_the_seed(kind, tmp_path):
    digests = []
    for n, seed in enumerate((7, 7, 8)):
        work = tmp_path / str(n)
        work.mkdir()
        digests.append(kind(ROOT, work, seed).input_digests())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def _flip_label(structured: str) -> str:
    doc = json.loads(structured)
    labels = workloads.STAGE_LABELS
    doc["label"]["stage"] = labels[(labels.index(doc["label"]["stage"]) + 1) % len(labels)]
    return json.dumps(doc)


def _run_briefly(workload) -> run.Loop:
    loop = run.Loop(workload)
    loop.run(0.2)
    return loop


def test_correct_outputs_pass_the_reference_check(tmp_path):
    loop = _run_briefly(workloads.ModelSweep(ROOT, tmp_path, 3))
    assert loop.attempted > 0
    assert loop.failures == []
    assert len(loop.walls["op"]) == loop.attempted
    assert sum(map(len, loop.by_input.values())) == loop.attempted


def test_a_flipped_label_stage_counts_as_failed(tmp_path):
    workload = workloads.ModelSweep(ROOT, tmp_path, 3)
    honest = workload.op

    def corrupted(i):
        structured, human, again = honest(i)
        return _flip_label(structured), human, again

    workload.op = corrupted
    loop = _run_briefly(workload)
    assert loop.attempted > 0
    assert len(loop.failures) == loop.attempted
    assert loop.walls["op"] == []
    assert "label" in loop.failures[0]


def test_a_wrong_warmup_output_counts_as_failed(tmp_path):
    workload = workloads.ModelSweep(ROOT, tmp_path, 3)
    honest = workload.op

    def wrong_first_call(i):
        structured, human, again = honest(i)
        return (_flip_label(structured) if i == 0 else structured), human, again

    workload.op = wrong_first_call
    loop = run.Loop(workload)
    loop.warm(3)
    assert loop.attempted == 3
    assert len(loop.failures) == 1
    assert loop.failures[0].startswith("warmup 0:")
    assert loop.by_input == {}


def test_a_raising_operation_counts_as_failed(tmp_path):
    workload = workloads.ModelSweep(ROOT, tmp_path, 3)

    def broken(i):
        raise RuntimeError("boom")

    workload.op = broken
    loop = _run_briefly(workload)
    assert len(loop.failures) == loop.attempted > 0


def test_p90_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(99)), 90) is None
    assert stats.tail_percentile(list(range(100)), 90) == 89
    samples = list(range(1, 101))
    p90 = stats.tail_percentile(samples, 90)
    assert sum(value > p90 for value in samples) == 10


def test_median_of_best_takes_each_inputs_fastest_repeat():
    assert stats.median_of_best([[5.0, 3.0, 9.0], [4.0], [8.0, 7.0]]) == 4.0
    assert stats.median_of_best([[2.0, 1.0]]) == 1.0


def test_percentile_is_nearest_rank():
    assert stats.percentile([5, 1, 3], 50) == 3
    assert stats.percentile([1, 2, 3, 4], 50) == 2
    assert stats.percentile([7], 90) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 50)
