"""The package's public surface."""

import seqgme


def test_every_exported_name_resolves():
    missing = [name for name in seqgme.__all__ if not hasattr(seqgme, name)]
    assert missing == []
    assert len(set(seqgme.__all__)) == len(seqgme.__all__)
