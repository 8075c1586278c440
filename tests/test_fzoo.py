"""The matrix-law check of the `fzoo` verb and the products it reads."""
import pytest

from f1geom import cli, fzoo
from f1geom.monoid import TableMonoid

MONOIDS = [TableMonoid.cyclic_group_with_zero(n) for n in (1, 2, 3)]
REAL_COMPOSE = fzoo.compose


@pytest.mark.parametrize("M", MONOIDS, ids=lambda M: f"C{len(M.elements) - 1}+0")
def test_products_are_valid_matrices(M):
    mats = list(fzoo.all_fmatrices(M, 2, 2))
    for f in mats:
        for g in mats:
            h = fzoo.compose(f, g)
            assert h == fzoo.FMatrix.make(M, h.source, h.target, h.entries)
    assert cli._matrix_laws_ok(M, 2)


def _wrong_value(f, g):
    """Every nonzero entry of the true product replaced by the identity."""
    h = REAL_COMPOSE(f, g)
    return fzoo.FMatrix(h.monoid, h.source, h.target,
                        tuple((pos, h.monoid.identity) for pos, _ in h.entries))


def _stray_zero(f, g):
    """The true product with an explicit zero entry, which no valid matrix stores."""
    h = REAL_COMPOSE(f, g)
    return fzoo.FMatrix(h.monoid, h.source, h.target, (((0, 0), h.monoid.zero),) + h.entries)


def _order_swapped(f, g):
    """Composes in the order of the entries: the unit laws still hold, but
    associativity does not."""
    return REAL_COMPOSE(g, f) if f.entries < g.entries else REAL_COMPOSE(f, g)


@pytest.mark.parametrize("wrong", [_wrong_value, _stray_zero, _order_swapped, lambda f, g: f,
                                   lambda f, g: REAL_COMPOSE(f, REAL_COMPOSE(f, g))])
def test_a_wrong_compose_fails_the_law_check(monkeypatch, wrong):
    M = TableMonoid.cyclic_group_with_zero(2)
    monkeypatch.setattr(fzoo, "compose", wrong)
    assert not cli._matrix_laws_ok(M, 2)
