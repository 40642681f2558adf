"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, assert_untraced, install_vexp_probes  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (624, (98.0, 12)),   # operator_queries
    (219, (95.0, 10)),   # audit_bundled
    (72, (86.0, 10)),    # bandlimited_approx
    (100000, (99.99, 10)),
    (20, (50.0, 10)),
    (19, (50.0, 9)),     # nothing qualifies: fall back to the median
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.nearest_rank(values, 95.0) == 95
    assert run.nearest_rank(values, 50.0) == 50
    assert run.nearest_rank([3.0], 99.0) == 3.0


def test_fixed_seed_gives_the_same_op_stream():
    universe = workloads.query_universe()
    assert len(universe) == 624
    first = workloads.permutation(universe, 7, 0)
    assert first == workloads.permutation(universe, 7, 0)
    assert first != workloads.permutation(universe, 8, 0)
    assert first != workloads.permutation(universe, 7, 1)
    assert sorted(first, key=workloads.op_id) == sorted(universe, key=workloads.op_id)

    config = workloads.shuffled_config(3, 0)
    assert config == workloads.shuffled_config(3, 0)
    assert config != workloads.shuffled_config(4, 0)
    from vexp.config import parse_config
    from vexp.defaults import default_config_text
    key = lambda d: sorted(d.items(), key=str)  # noqa: E731
    assert (sorted(map(key, parse_config(config)["case"]), key=str)
            == sorted(map(key, parse_config(default_config_text())["case"]), key=str))


def _bindings():
    """Every attribute of every vexp module and class, by identity."""
    from tracer import _vexp_modules
    out = {}
    for mod in _vexp_modules():
        for name, val in vars(mod).items():
            out[(mod.__name__, name)] = val
            if isinstance(val, type):
                for attr, inner in vars(val).items():
                    out[(mod.__name__, name, attr)] = inner
    return out


def test_wrappers_are_removed_before_a_timed_run():
    import vexp.audit  # noqa: F401  (loads every layer module)
    before = _bindings()
    tr = Tracer()
    install_vexp_probes(tr)
    try:
        with pytest.raises(RuntimeError):
            assert_untraced()

        class Never:
            def run_batch(self, seed, batch):
                raise AssertionError("a timed batch ran with probes installed")
        with pytest.raises(RuntimeError):
            run.run_batches(Never(), seed=1, seconds=1.0)
    finally:
        tr.uninstall()
    assert_untraced()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)


def test_probes_count_a_library_call():
    tr = Tracer()
    install_vexp_probes(tr)
    try:
        result = workloads.call_op(("gauss", "p2", "norm", None, None))
    finally:
        tr.uninstall()
    assert workloads.check_op(("gauss", "p2", "norm", None, None), result) is None
    assert tr.counts["quad.roots"] == 1
    assert tr.counts["norms.modular_evals"] > 1
    assert tr.calls("fnexpr") >= 1 and tr.calls("norms.root") == 1


def test_self_time_on_a_synthetic_nested_trace():
    ticks = iter([0.0, 1.0, 2.0, 5.0, 6.0, 8.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    tr.begin("outer")      # 0
    tr.begin("mid")        # 1
    tr.begin("inner")      # 2
    tr.end()               # 5: inner 3
    tr.end()               # 6: mid 5, self 2
    tr.begin("inner")      # 8
    tr.end()               # 10: inner 2
    # outer has not ended; end it on a fresh tick
    tr.clock = lambda: 12.0
    tr.end()               # outer 12, children 5 + 2, self 5
    assert tr.inclusive_s("inner") == 5.0 and tr.self_s("inner") == 5.0
    assert tr.inclusive_s("mid") == 5.0 and tr.self_s("mid") == 2.0
    assert tr.inclusive_s("outer") == 12.0 and tr.self_s("outer") == 5.0
    assert tr.calls("inner") == 2 and tr.calls("outer") == 1


def test_reference_comparison_counts_changed_rows():
    header = "theorem_id,case_id,lhs,rhs,constant,ratio,pass,flags\n"
    ref = header + "a,x,1,2,1,0.5,true,\na,x,1,2,1,0.5,true,\nb,y,3,4,1,0.75,true,\n"
    assert workloads.rows_changed(ref, ref) == 0
    moved = ref.replace("b,y,3,4", "b,y,3.0000001,4")
    assert workloads.rows_changed(moved, ref) == 1
    dropped = header + "a,x,1,2,1,0.5,true,\nb,y,3,4,1,0.75,true,\n"
    assert workloads.rows_changed(dropped, ref) == 1
