"""Free-group words and reduction, for the paper's colouring construction.

A letter is a pair ``(generator, sign)`` with ``sign`` +1 or -1; the inverse
of ``(g, s)`` is ``(g, -s)``.  Two reducers are provided: the classic stack
reducer (the reference), and a reducer that partitions letter positions into
cancellation classes and keeps one survivor per unbalanced class pair.  Both
produce the unique freely reduced normal form.  With the rank-2 embedding
they cross-check the paper's reduction of the word problem to the free group.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

FLetter = tuple[int, int]
FWord = tuple[FLetter, ...]


def inverse_letter(letter: FLetter) -> FLetter:
    g, s = letter
    return (g, -s)


def free_reduce_stack(word: Sequence[FLetter]) -> FWord:
    """Cancel adjacent inverse pairs with a stack; the reference reducer."""
    stack: list[FLetter] = []
    for letter in word:
        if stack and stack[-1] == (letter[0], -letter[1]):
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def is_trivial(word: Sequence[FLetter]) -> bool:
    """Whether the word represents the identity of the free group."""
    return not free_reduce_stack(word)


@dataclass(frozen=True)
class ReductionClasses:
    """Cancellation structure of a word.

    Positions i and j (0-based) share a class when they carry the same letter
    and the factor strictly between them reduces to the identity.  A class is
    paired with the class of the positions its letters cancel against, when
    such positions exist.  In each paired union the indices of the two sides
    alternate in ascending order, so the sizes differ by at most one; the
    letters of a class with a surplus survive reduction, all others cancel.
    """

    classes: tuple[tuple[int, ...], ...]
    inverse: tuple[Optional[int], ...]  # class index -> paired class index
    survivors: tuple[int, ...]  # positions of the freely reduced word


def reduction_classes(word: Sequence[FLetter]) -> ReductionClasses:
    """Compute the cancellation classes, their pairing, and the survivors.

    Equality of the in-between factor with the identity is decided by the
    stack reducer: the reduced stack states after equal prefixes coincide
    exactly when the factor between them is trivial.  States are hash-consed
    so each position is keyed by (letter, state after it) in O(1).
    """
    n = len(word)
    parent = [-1]
    top: list[Optional[FLetter]] = [None]
    trans: dict[tuple[int, FLetter], int] = {}

    def step(state: int, letter: FLetter) -> int:
        t = top[state]
        if t is not None and t == (letter[0], -letter[1]):
            return parent[state]
        key = (state, letter)
        nxt = trans.get(key)
        if nxt is None:
            nxt = len(parent)
            parent.append(state)
            top.append(letter)
            trans[key] = nxt
        return nxt

    states = [0]
    for letter in word:
        states.append(step(states[-1], letter))

    # class key of position i: (letter, state after i+1 letters)
    members: dict[tuple[FLetter, int], list[int]] = {}
    for i, letter in enumerate(word):
        members.setdefault((letter, states[i + 1]), []).append(i)

    keys = list(members)
    index = {key: ci for ci, key in enumerate(keys)}
    classes = tuple(tuple(members[key]) for key in keys)
    inverse: list[Optional[int]] = []
    for letter, state in keys:
        bar = (letter[0], -letter[1])
        inverse.append(index.get((bar, step(state, bar))))

    survivors: list[int] = []
    for ci, own in enumerate(classes):
        other = classes[inverse[ci]] if inverse[ci] is not None else ()
        if len(own) - len(other) == 1:
            survivors.append(own[-1])
    survivors.sort()
    return ReductionClasses(classes, tuple(inverse), tuple(survivors))


def free_reduce_classes(word: Sequence[FLetter]) -> FWord:
    """Freely reduce by cancellation classes; agrees with the stack reducer."""
    table = reduction_classes(word)
    return tuple(word[i] for i in table.survivors)


def embed_f2(word: Sequence[FLetter]) -> FWord:
    """Embed a word over generators 1, 2, ... into the rank-2 free group on
    a = 0, b = 1 via ``(j, s) -> b^j a^s b^-j``; triviality is preserved and
    reflected."""
    out: list[FLetter] = []
    for g, s in word:
        if g < 1:
            raise ValueError("generator indices must be >= 1")
        out.extend([(1, 1)] * g)
        out.append((0, s))
        out.extend([(1, -1)] * g)
    return tuple(out)
