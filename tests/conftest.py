import pytest

from eqlarge import words


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
