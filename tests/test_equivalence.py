"""The equivalence grid of tests/equivalence.py, pinned on its SUBSET grid.

`python tests/equivalence.py` runs and checks the full grid.
"""

import pytest

from equivalence import FAMILIES, SUBSET

SUBSET_DIGESTS = {
    "pages": "0384673cd406611dee671ad9f3eb1ebaf5b7f64c3e8c796f277fb51c6460fb0e",
    "large_radii": "53ce5d908485d01e66ba9e8c0ea8dbf51b6ba62ba9ccf73d2afe985d89afdac1",
    "hostile": "b0ca03b5ed897160125f3929471018e80c802de27fec206535f6fc0dde832569",
    "contours": "c283dc865755e83e0eadcf0a75099e6a5dc60d833ee1a5017e626a547307967e",
    "reports": "c5f8315db819fb54610577c2f1f5b7e21920d47a90c221dc5f1c18bc6e9369cf",
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_subset_digest_is_pinned(family):
    assert FAMILIES[family](SUBSET) == SUBSET_DIGESTS[family]
