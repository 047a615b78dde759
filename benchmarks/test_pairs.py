"""The verdicts of ``benchmarks/pairs.py`` on synthetic pairs, and its output parser.

The tool's own acceptance check, an A/A run of one commit against itself
that must meet no claim, runs real benchmark processes and takes minutes;
here the same rule is held to the same promise on drawn numbers.
"""

import random

import pytest

import pairs

#: The readable block and result line of one ``run.py --trace 0`` run.
RUN_STDERR = """== roam_logical seed 1 — end-to-end (untraced)
  setup_s                                      0.461349 s
  peak_rss_mb                                   39.0156 MB
  link_msgs_per_delivery                        2.80168 count
  wall clock, reported but not gated:
  deliveries_per_s                              20271.8 1/s
  deliver_p50_ms                                0.28309 ms
  deliver_p99_ms                               0.586931 ms
  control_p50_ms                                0.17179 ms
  control_p90_ms                               0.211913 ms
  3 cycles in 3.13 s; per round: 6557 deliver samples, 100 location_update samples
"""
RUN_STDOUT = (
    '{"correct": true, "attempted": 57369, "failed": 0, "metrics": {'
    '"setup_s": {"value": 0.46, "unit": "s"}, "peak_rss_mb": {"value": 39.0, "unit": "MB"}, '
    '"link_msgs_per_delivery": {"value": 2.8, "unit": "count"}}}\n'
)


def test_parse_run_reads_the_result_line_and_the_wall_clock_block():
    values, failed = pairs.parse_run(RUN_STDOUT, RUN_STDERR)
    assert failed == 0
    assert values == {
        "setup_s": 0.46,
        "peak_rss_mb": 39.0,
        "link_msgs_per_delivery": 2.8,
        "deliveries_per_s": 20271.8,
        "deliver_p50_ms": 0.28309,
        "deliver_p99_ms": 0.586931,
        "control_p50_ms": 0.17179,
        "control_p90_ms": 0.211913,
    }


def test_a_crashed_run_names_its_workload_seed_and_side(tmp_path):
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    script.parent.mkdir(parents=True)
    script.write_text("import sys\nsys.stderr.write('boom\\n')\nsys.exit(3)\n")
    expected = "churn_mixed seed 4 on the change side exited 3:\nboom"
    with pytest.raises(pairs.RunFailed, match=expected):
        pairs.run("change", tmp_path, "churn_mixed", 4, None)


def test_a_run_whose_oracle_failed_is_counted_not_raised(tmp_path):
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    script.parent.mkdir(parents=True)
    printed = RUN_STDOUT.replace('"failed": 0', '"failed": 2')
    script.write_text("import sys\nprint({!r})\nsys.exit(1)\n".format(printed.strip()))
    values, failed = pairs.run("base", tmp_path, "roam_logical", 1, None)
    assert failed == 2
    assert values["link_msgs_per_delivery"] == 2.8


def test_a_over_a_rarely_meets_a_claim():
    rng = random.Random(7)
    trials = 2000
    claims = 0
    for _ in range(trials):
        base = [rng.gauss(100, 5) for _ in range(10)]
        change = [rng.gauss(100, 5) for _ in range(10)]
        claims += pairs.judge(base, change, "lower", None)[4] == "claim met"
    assert claims / trials < 0.01


def test_identical_runs_meet_no_claim_and_stay_within_bound():
    values = [40.0, 40.2, 39.9, 40.1, 40.0]
    assert pairs.judge(values, values, "lower", 0.05)[3:] == (0, "within bound")
    assert pairs.judge(values, values, "higher", None)[3:] == (0, "unresolved")


@pytest.mark.parametrize(
    "better, factor, verdict",
    [("lower", 0.8, "claim met"), ("higher", 1.25, "claim met"), ("lower", 1.1, "regressed")],
)
def test_a_clear_shift_is_judged_by_direction(better, factor, verdict):
    base = [100.0 + index for index in range(10)]
    change = [value * factor for value in base]
    assert pairs.judge(base, change, better, 0.05)[4] == verdict


def test_a_spread_wider_than_the_bound_is_unresolved_not_unchanged():
    base = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0]
    change = [value + 1 for value in base]
    assert pairs.judge(base, change, "lower", 0.05)[4] == "unresolved"
    # Unless every run of the change reads better than every run of the parent.
    assert pairs.judge(base, [70.0] * 6, "lower", 0.05)[4] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved_before_a_shift_is_judged():
    """An A/A ``setup_s`` run of identical code: the median moved by more than the bound."""
    base = [0.170, 0.2107, 0.226, 0.240, 0.290, 0.300]
    change = [0.160, 0.280, 0.285, 0.299, 0.320, 0.350]
    middle, after, iqr, wins, verdict = pairs.judge(base, change, "lower", 0.25)
    assert (round(middle, 3), round(after, 3), round(iqr, 3), wins) == (0.233, 0.292, 0.092, 1)
    assert iqr > 0.25 * middle and after - middle > 0.25 * middle
    assert verdict == "unresolved"


def test_a_spread_wider_than_the_bound_still_flags_a_complete_separation():
    base = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0]
    assert pairs.judge(base, [130.0] * 6, "lower", 0.05)[4] == "regressed"
    assert pairs.judge(base, [70.0] * 6, "higher", 0.05)[4] == "regressed"
    assert pairs.judge(base, [121.0] * 6, "higher", 0.05)[4] == "within bound"
