import kfpca


def test_every_export_resolves():
    missing = [name for name in kfpca.__all__ if not hasattr(kfpca, name)]
    assert missing == []
    assert len(set(kfpca.__all__)) == len(kfpca.__all__)
