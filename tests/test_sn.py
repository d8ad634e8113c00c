import math
from itertools import permutations

import numpy as np
import pytest

from steinperm import AntisymmetricMatrix, descents_matrix, inversions_matrix
from steinperm import _sn
from steinperm.perm_core import EnumerationLimitError


class TestSweep:
    def test_rows_and_inner_sums(self):
        m = inversions_matrix(5)
        mint, scale, sweep = _sn.sweep(m)
        assert scale == 1
        rows = []
        for perms, inner in sweep:
            assert np.array_equal(inner, _sn.inner_sums(perms, mint))
            rows += perms.tolist()
        assert rows == [list(p) for p in permutations(range(5))]

    def test_rational_scale(self):
        m = AntisymmetricMatrix.from_rows([["0", "1/2", "1/3"], ["-1/2", "0", "1"], ["-1/3", "-1", "0"]])
        mint, scale, _ = _sn.sweep(m)
        assert scale == 6
        assert mint.tolist() == [[0, 3, 2], [-3, 0, 6], [-2, -6, 0]]

    # a lazy guard would raise only on the first next(); these raise on the call
    def test_limit_checked_before_return(self):
        with pytest.raises(EnumerationLimitError):
            _sn.sweep(descents_matrix(11))
        _, _, sweep = _sn.sweep(descents_matrix(4), limit=4)
        assert sum(len(perms) for perms, _ in sweep) == math.factorial(4)

    @pytest.mark.parametrize("entry", ["9000000000000", "1/9000000000000", str(1 << 70)])
    def test_large_entries_refused_before_return(self, entry):
        neg = entry[1:] if entry.startswith("-") else "-" + entry
        m = AntisymmetricMatrix.from_rows([["0", entry, "1"], [neg, "0", "1"], ["-1", "-1", "0"]])
        with pytest.raises(ValueError, match="too large"):
            _sn.sweep(m)
