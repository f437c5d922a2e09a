"""Errata findings: each numeric check reads its constants from the finding's text."""
from fractions import Fraction

import pytest
from mpmath.libmp import from_man_exp

from graphasym import assembly, errata
from graphasym.errata import Finding
from graphasym.ramanujan import q_scaled

import oracles

NUMERIC = sorted(errata._REMAINDERS)


@pytest.mark.parametrize("key", NUMERIC)
def test_stated_and_derived_texts_round_trip_through_the_parser(key):
    finding = errata._BY_KEY[key]
    for text in (finding.stated, finding.derived):
        assert str(errata._constant(text)) == text


def _verify_with_texts(monkeypatch, key, stated, derived):
    f = errata._BY_KEY[key]
    monkeypatch.setitem(errata._BY_KEY, key, Finding(f.key, f.quantity, stated, derived, f.method))
    return errata.verify_finding(key)


@pytest.mark.parametrize("key", NUMERIC)
def test_a_finding_with_stated_and_derived_swapped_reads_false(monkeypatch, key):
    f = errata._BY_KEY[key]
    assert _verify_with_texts(monkeypatch, key, f.derived, f.stated) is False


@pytest.mark.parametrize("key", NUMERIC)
def test_a_stated_value_equal_to_the_derived_one_is_not_separated(monkeypatch, key):
    # the derived text still matches the expansion, so only the 10x
    # remainder separation can tell the two apart, and here it must not
    f = errata._BY_KEY[key]
    assert _verify_with_texts(monkeypatch, key, f.derived, f.derived) is False


def test_the_excess_zero_constant_is_refuted_by_integrality(monkeypatch):
    # the split already matches the edge recurrence, and its values are
    # integers, so only a stated constant that is not an integer is refuted
    key = "excess_zero_constant"
    assert errata.verify_finding(key) is True
    assert _verify_with_texts(monkeypatch, key, "+5/2", "0") is True
    assert _verify_with_texts(monkeypatch, key, "2", "0") is False
    assert _verify_with_texts(monkeypatch, key, "+3/2", "1/2") is False


def test_q_is_correctly_rounded_at_512_bits(monkeypatch):
    # n**n divided as an mpf rounds three times: at n = 777 that was one ulp
    # off; n = 1024 and 4096, where errata reads Q, are powers of two and hid it
    for n in (777, 1024, 3001, 4096):
        want = from_man_exp(*oracles.round_to_bits(Fraction(q_scaled(n), n**n), 512))
        assert errata._q_at(n)._mpf_ == want, n
    calls = []
    monkeypatch.setattr(assembly, "q_scaled", lambda n: calls.append(n))
    assert errata._q_at(4096) > 1  # from Q's head, not the whole sum
    assert calls == []
