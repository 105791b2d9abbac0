"""Deterministic plain-text rendering of sparse algebra elements."""

from __future__ import annotations

from fractions import Fraction

from .free_tensor import graded_key


def format_id(b, labels: dict = None) -> str:
    if labels and b in labels:
        return labels[b]
    return str(b)


def labelled(text: str, labels: dict = None):
    """A describe callable for ``CheckReport.record``: text formatted with
    its arguments, each named by :func:`format_id` (a basis id by its
    label, where labels has one)."""
    return lambda *args: text.format(*(format_id(a, labels) for a in args))


def format_word(w: tuple, labels: dict = None) -> str:
    if not w:
        return "1"
    return "*".join(format_id(b, labels) for b in w)


def format_element(elem: dict, labels: dict = None) -> str:
    """Sorted, signed sum of coefficient-monomial terms; '0' when empty."""
    if not elem:
        return "0"
    parts = []
    for w in sorted(elem, key=graded_key):
        c = Fraction(elem[w])
        mono = format_word(w, labels)
        mag = abs(c)
        if mag == 1 and w:
            body = mono
        elif w:
            body = f"{mag}*{mono}"
        else:
            body = f"{mag}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)
