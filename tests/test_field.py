import pytest

from charp import PolyRing, is_prime
from charp.poly import check_characteristic


def test_characteristic_validation():
    for p in (4, 1, 1 << 16):
        with pytest.raises(ValueError, match="is not a prime in"):
            check_characteristic(p)
        with pytest.raises(ValueError, match="is not a prime in"):
            PolyRing(p, ["x"])
    assert check_characteristic(65521) == 65521
    assert [n for n in range(30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_prime(65521)
    assert not is_prime(65535)
