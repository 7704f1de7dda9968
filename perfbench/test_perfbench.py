"""Tests of the benchmark's own arithmetic: spans, self times, medians
and the two reference models."""

import math

import pytest

from models import backoff_stages, bianchi_tau, bianchi_throughput_bps, \
    eq1_rate
from run import import_times
from steady import summarize
from tracing import Recorder, Tracer, layer_metrics, outermost, self_times


def _span(name, start, end, parent=None, attrs=None):
    return [name, start, end, parent, attrs]


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    recorder = Recorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner)
    recorder.close(outer)
    assert [span[3] for span in recorder.spans] == [None, outer]
    assert recorder.spans[0][1] <= recorder.spans[1][1] \
        <= recorder.spans[1][2] <= recorder.spans[0][2]
    first = recorder.open("a")
    recorder.open("b")
    with pytest.raises(RuntimeError):
        recorder.close(first)


def test_take_since_detaches_a_tree_of_its_own():
    recorder = Recorder()
    recorder.spans = [_span("bench", 0, 9), _span("map", 1, 8, 0),
                      _span("point", 2, 7, 1), _span("kernel", 3, 4, 2)]
    shipped = recorder.take_since(2)
    assert [span[3] for span in shipped] == [None, 0]
    assert len(recorder.spans) == 2


def test_self_times_sum_to_the_root_duration():
    tree = [_span("root", 0.0, 10.0), _span("a", 1.0, 4.0, 0),
            _span("b", 5.0, 9.0, 0), _span("c", 6.0, 7.0, 2)]
    own = self_times(tree)
    assert own == pytest.approx([3.0, 3.0, 3.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_layer_totals_count_only_outermost_spans():
    recorder = Recorder()
    recorder.spans = [
        _span("bench", 0.0, 10.0),
        _span("channel.send_trains", 1.0, 6.0, 0),
        _span("channel.send_trains", 2.0, 5.0, 1),
        _span("kernel.probe", 3.0, 4.0, 2, {"rows": 30}),
        _span("kernel.probe", 7.0, 8.0, 0, {"rows": 10}),
    ]
    recorder.worker_trees = [[_span("traffic.generate", 0.0, 0.5, None,
                                    {"packets": 7})]]
    assert outermost(recorder.spans) == [True, True, False, True, True]
    metrics = layer_metrics(recorder, [])
    assert metrics["channel.send_trains.calls"][0] == 1
    assert metrics["channel.send_trains.s"][0] == pytest.approx(5.0)
    assert metrics["channel.send_trains.self_s"][0] == pytest.approx(4.0)
    assert metrics["kernel.probe.calls"][0] == 2
    assert metrics["kernel.probe.rows"][0] == pytest.approx(20.0)
    assert metrics["traffic.generate.packets"][0] == 7


def test_tracer_records_calls_and_restores_every_attribute():
    from repro.runtime import sweep
    from repro.analysis.results import ExperimentResult
    original = sweep.refine_candidates
    from_dict = ExperimentResult.__dict__["from_dict"]
    recorder = Recorder()
    tracer = Tracer(recorder)
    tracer.install()
    try:
        assert sweep.refine_candidates([0.0, 1.0, 2.0], [0.0, 1.0, 0.0],
                                       2)
    finally:
        tracer.remove()
    assert [span[0] for span in recorder.spans] == ["sweep.refine"]
    assert sweep.refine_candidates is original
    assert ExperimentResult.__dict__["from_dict"] is from_dict


def test_summarize_matches_statistics_quartiles():
    row = summarize(range(1, 11))
    assert row["median"] == 5.5
    assert (row["q1"], row["q3"]) == (2.75, 8.25)
    assert (row["min"], row["max"]) == (1, 10)
    assert row["spread"] == pytest.approx(5.5 / 5.5)
    assert summarize([4.0])["spread"] == 0.0


def test_import_times_reads_the_importtime_report():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        900 |     scipy.stats",
        "import time:        20 |       1000 |   repro.analysis",
        "import time:        30 |       1200 | repro",
        "import time:        40 |        300 | repro.cli",
    ])
    repro_s, scipy_s = import_times(report)
    assert repro_s == pytest.approx(1500e-6)
    assert scipy_s == pytest.approx(700e-6)


def test_eq1_follows_the_input_rate_up_to_the_available_bandwidth():
    rates = eq1_rate([2e6, 6e6, 8e6], capacity_bps=10e6,
                     available_bps=6e6)
    assert rates[0] == 2e6
    assert rates[1] == pytest.approx(6e6)
    assert rates[2] == pytest.approx(10e6 * 8e6 / 12e6)


def test_bianchi_single_station_and_program_agreement():
    from repro.analytic.bianchi import BianchiModel
    from repro.mac.params import PhyParams
    phy = PhyParams.dot11b()
    assert backoff_stages(phy.cw_min, phy.cw_max) == 5
    assert bianchi_tau(1, phy.cw_min, 5) == pytest.approx(2 / 33)
    # One station: tau L / ((1 - tau) slot + tau T_success).
    data = phy.plcp_overhead + (1500 + phy.mac_overhead_bytes) * 8 / 11e6
    ack = phy.plcp_overhead + phy.ack_bytes * 8 / phy.basic_rate
    busy = data + phy.sifs + ack + phy.sifs + 2 * phy.slot_time
    tau = 2 / 33
    single = tau * 12000 / ((1 - tau) * phy.slot_time + tau * busy)
    assert bianchi_throughput_bps(1, phy, 1500) == pytest.approx(single)
    model = BianchiModel(phy, 1500)
    for n in (2, 3, 5, 10):
        ours = bianchi_throughput_bps(n, phy, 1500)
        assert math.isclose(ours, model.solve(n).total_throughput_bps,
                            rel_tol=1e-9)
