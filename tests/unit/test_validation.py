"""Unit tests for the argument validation helpers."""

from __future__ import annotations

import pytest

from repro.utils.validation import (
    require_in_unit_interval,
    require_non_negative,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(3.5, "x") == 3.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="deadline"):
            require_positive(-1.0, "deadline")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(float("nan"), "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "mu") == 0.0

    def test_accepts_positive(self):
        assert require_non_negative(2.0, "mu") == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="mu must be >= 0"):
            require_non_negative(-0.1, "mu")


class TestRequireInUnitInterval:
    def test_accepts_bounds(self):
        assert require_in_unit_interval(0.0, "p") == 0.0
        assert require_in_unit_interval(1.0, "p") == 1.0

    def test_accepts_interior(self):
        assert require_in_unit_interval(0.25, "p") == 0.25

    def test_rejects_above_one(self):
        with pytest.raises(ValueError, match="within \\[0, 1\\]"):
            require_in_unit_interval(1.0001, "p")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_in_unit_interval(-0.2, "p")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="within \\[0, 1\\]"):
            require_in_unit_interval(float("nan"), "p")
