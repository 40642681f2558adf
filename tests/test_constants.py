import math

import pytest

from vexp import constants as C


def values(table):
    return {name: v for name, v, _ in table.entries}


CONSTANT_NAMES = tuple(values(C.constant_table(1, 1, 2.0, 0.0)))


class TestExactValues:
    def test_kfunc_constant(self):
        assert C.c8_k(1) == 36.0
        assert C.c8_k(2) == 2 ** 2 * (2 ** 2 + 34 ** 2) == 4640.0

    def test_averaging_constants(self):
        assert C.c7(0.0) == 2.0
        assert C.c5(1.0, 0.0) == 192.0
        assert C.c10(1.0, 0.0) == 48.0 * 2.0 * 192.0

    def test_geometric_series_folded(self):
        # c5 carries the factor (1/2 + 2) from the folded series
        assert C.c5(2.0, 0.0) == pytest.approx(2 ** 3 * 9 * (1 + 2 * 9 * 2.5))

    def test_jackson_constants(self):
        assert C.c11(1, 1.0, 0.0) == pytest.approx(30 * math.pi * 8 * 192 * 2 * 36)
        assert C.jackson_sup(1) == pytest.approx(5 * math.pi * 36)

    def test_marchaud_constant(self):
        assert C.c9(1, 1) == pytest.approx(10 * math.pi * 3 * 32 * C.c8_k(2))

    def test_band_constant(self):
        assert C.c4(2.0, 0.5) == pytest.approx(math.exp(-4.0))
        assert 0.0 < C.c4(2.0, 0.5) < 1.0


class TestNameCollisions:
    def test_c14_variants_distinct(self):
        a = C.c14_marchaud(1, 1, 2.0, 0.3)
        b = C.c14_series(1, 1, 2.0, 0.3)
        assert a != b
        assert a == pytest.approx(48 * C.c7(0.3) * C.c9(1, 1) * C.c5(2.0, 0.3))
        assert b == pytest.approx(48 * C.c7(0.3) * C.c5(2.0, 0.3) * 2 ** 5)

    def test_c8_variants_distinct(self):
        assert C.c8_k(1) != C.c8_transfer(72.0, 2.0, 0.0)
        assert C.c8_transfer(72.0, 2.0, 0.0) == \
            pytest.approx(48 * 2 * 72 * C.c5(2.0, 0.0))


class TestApi:
    def test_table_is_deterministic(self):
        t1 = C.constant_table(2, 1, 2.5, 0.4)
        t2 = C.constant_table(2, 1, 2.5, 0.4)
        assert t1.entries == t2.entries
        assert t1.as_csv() == t2.as_csv()
        assert values(t1)["c8_k"] == 4640.0

    def test_csv_shape(self):
        lines = C.constant_table(1, 1, 2.0, 0.0).as_csv().strip().splitlines()
        assert lines[0] == "name,value,formula"
        assert len(lines) == 1 + len(CONSTANT_NAMES)


class TestMonotonicity:
    @pytest.mark.parametrize("name", CONSTANT_NAMES)
    def test_direction_in_c3(self, name):
        grid = [0.0, 0.25, 0.5, 1.0]
        vals = [values(C.constant_table(2, 1, 2.5, c))[name] for c in grid]
        if name != "c4":
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        else:  # a lower-band factor in (0, 1): exp(-4 m c3) decreases
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_nondecreasing_in_p_plus_r_k(self):
        for name in ("c5", "c10", "c11", "c12", "c13"):
            vals = [values(C.constant_table(1, 1, pp, 0.3))[name]
                    for pp in (1.5, 2.0, 3.0)]
            assert vals[0] <= vals[1] <= vals[2]
        for name in ("c8_k", "C9", "c11", "c14_marchaud", "c14_series"):
            vals = [values(C.constant_table(r, 2, 2.0, 0.3))[name]
                    for r in (1, 2, 3)]
            assert vals[0] <= vals[1] <= vals[2]
