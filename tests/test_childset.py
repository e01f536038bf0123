import pytest

from treemoments import ChildSet


class TestValidation:
    def test_sorts_and_deduplicates(self):
        assert ChildSet((2, 0, 1, 2)).elements == (0, 1, 2)
        assert ChildSet([0, 3, 3]).elements == (0, 3)

    def test_requires_zero(self):
        with pytest.raises(ValueError):
            ChildSet((1, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ChildSet(())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ChildSet((-1, 0))

    @pytest.mark.parametrize("elements, bad", [
        ([0, 1.5], "1.5"),
        ([0.4, 2], "0.4"),
        ([0, "2"], "'2'"),
        ([0, 2.0], "2.0"),
        ([0, None], "None"),
    ])
    def test_refuses_non_integral_elements_naming_them(self, elements, bad):
        with pytest.raises(ValueError, match=f"child count {bad} is not an integer"):
            ChildSet(elements)

    def test_equal_sets_compare_and_hash_equal(self):
        assert ChildSet((0, 2, 1)) == ChildSet((0, 1, 2))
        assert hash(ChildSet((0, 2, 1))) == hash(ChildSet((0, 1, 2)))


class TestAccessors:
    def test_membership_and_iteration(self):
        s = ChildSet((0, 2))
        assert 0 in s and 2 in s and 1 not in s
        assert list(s) == [0, 2]
        assert len(s) == 2

    def test_max_count_and_index(self):
        s = ChildSet((0, 1, 3))
        assert s.max_count == 3
        assert s.index(3) == 2

    def test_offspring_polynomial_dense_coefficients(self):
        assert ChildSet((0, 1, 2)).offspring_polynomial() == [1, 1, 1]
        assert ChildSet((0, 2)).offspring_polynomial() == [1, 0, 1]
        assert ChildSet((0,)).offspring_polynomial() == [1]

    def test_within_keeps_the_elements_below_n(self):
        s = ChildSet((0, 1, 5, 10**12))
        assert s.within(10**12 + 1) is s
        assert s.within(6).elements == (0, 1, 5)
        assert s.within(5).elements == (0, 1)
        assert s.within(1).elements == (0,)

    def test_str(self):
        assert str(ChildSet((0, 1, 2))) == "{0,1,2}"
