import pytest

from eqlarge import group, words


@pytest.fixture
def compiles(monkeypatch):
    """An empty compile cache for the test; the list returned gets the
    roots of every program compile_words compiles afresh."""
    compiled, uncached = [], words._compile

    def counted(roots, product):
        compiled.append(roots)
        return uncached(roots, product)

    monkeypatch.setattr(words, "_compiled", [])
    monkeypatch.setattr(words, "_compile", counted)
    return compiled


@pytest.fixture
def folds(monkeypatch):
    """The list returned gets (product, h) for every product row that
    ProductGroup.row folds during the test."""
    folded, fold = [], group.ProductGroup.row

    def counted(P, h):
        folded.append((P, h))
        return fold(P, h)

    monkeypatch.setattr(group.ProductGroup, "row", counted)
    return folded
