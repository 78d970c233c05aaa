"""Runtime values and states: addresses, stacks, heaps.

An address addr(n, u, i) names cell i of the u-th allocated block of
length n; indices run from 1 to n. Blocks are never merged, so a block
is identified by (length, instance) and a cell by the full triple.

An Address is a named tuple (length, instance, index), checked when made,
so hashing, equality and order are the tuple's, done in C, and order is
the triple order. An Address therefore equals the plain triple. No value
of the language and no key of a type is a tuple, so no state, type or
certificate can tell. AST nodes are tuples too (lang.Record), but no
node is ever a value or a key.
"""

from __future__ import annotations

import heapq
import re
from collections import namedtuple

from .lang import Record, int_digits


class Address(namedtuple("Address", "length instance index")):
    __slots__ = ()

    def __new__(cls, length: int, instance: int, index: int):
        if length < 1:
            raise ValueError(f"block length must be >= 1, got {length}")
        if instance < 1:
            raise ValueError(f"instance must be >= 1, got {instance}")
        if not 1 <= index <= length:
            raise ValueError(f"index must be in 1..{length}, got {index}")
        return tuple.__new__(cls, (length, instance, index))

    def __repr__(self):
        return f"addr({self[0]},{self[1]},{self[2]})"


class NilValue:
    """The nil constant; a single shared instance lives in NIL."""

    __slots__ = ()

    def __repr__(self):
        return "nil"

    def __eq__(self, other):
        return isinstance(other, NilValue)

    def __hash__(self):
        return hash(NilValue)


NIL = NilValue()

Value = int | NilValue | Address

Stack = dict  # str -> Value, total on the program's variables
Heap = dict   # Address -> Value, finite


class ProgState(Record):
    __slots__ = ()
    stack: Stack
    heap: Heap

    def copy(self) -> "ProgState":
        return ProgState(dict(self.stack), dict(self.heap))


class Blocks:
    """The blocks in use in one run's heap, indexed for allocation.

    A block (length, instance) is in use while at least one of its cells
    is in the heap. The index holds the live cell count of every block in
    use; per length, a cursor below which every instance is in use or
    freed, and a min-heap of the instances freed below the cursor. It is
    built from the heap on the first allocation, in time linear in the
    heap and with one entry per block in use, so a run that never
    allocates pays nothing. Once it is built, cells enter the heap only as
    the block of a fresh_instance, written by its caller, and leave it
    only through dispose.

    len() is the number of cells in the heap.
    """

    __slots__ = ("heap", "_cells", "_cursor", "_freed")

    def __init__(self, heap: Heap):
        self.heap = heap
        self._cells: dict | None = None  # (length, instance) -> live cells
        self._cursor: dict = {}  # length -> least instance not yet reached
        self._freed: dict = {}   # length -> min-heap of freed instances

    def __len__(self) -> int:
        return len(self.heap)

    def dispose(self, a: Address) -> None:
        """Remove the cell a from the heap; its block becomes free with
        its last cell."""
        del self.heap[a]
        cells = self._cells
        if cells is None:
            return
        block = a[:2]  # (length, instance)
        left = cells[block] - 1
        if left:
            cells[block] = left
            return
        del cells[block]
        # a free instance at or above the cursor is found by the cursor
        if a.instance < self._cursor.get(a.length, 1):
            heapq.heappush(self._freed.setdefault(a.length, []), a.instance)


def fresh_instance(blocks: Blocks, length: int) -> int:
    """Least u >= 1 such that no cell of block (length, u) is in the heap.

    The block is counted in use with all its cells, which the caller then
    writes. Called once per cons; amortised O(log n) once the index is
    built."""
    cells = blocks._cells
    if cells is None:
        # a plain loop: Counter costs more to set up on the small heaps
        # most runs start from
        cells = blocks._cells = {}
        for a in blocks.heap:
            block = a[:2]
            cells[block] = cells.get(block, 0) + 1
    freed = blocks._freed.get(length)
    if freed:
        u = heapq.heappop(freed)
    else:
        u = blocks._cursor.get(length, 1)
        while (length, u) in cells:
            u += 1
        blocks._cursor[length] = u + 1
    cells[(length, u)] = length
    return u


def addr_shift(a: Address, k: int) -> Address | None:
    """Move k cells within a's block; None when the result leaves 1..length."""
    n, u, i = a
    i += k
    if 1 <= i <= n:  # valid, so built without Address's checks
        return tuple.__new__(Address, (n, u, i))
    return None


def _rank(v: Value) -> int:
    if isinstance(v, bool):
        raise TypeError("booleans are not values")
    if isinstance(v, int):
        return 0
    if isinstance(v, NilValue):
        return 1
    return 2


# the rank of each value type; _rank decides any other type
_RANK = {int: 0, NilValue: 1, Address: 2}


def value_lt(v1: Value, v2: Value) -> bool:
    """Total strict order: integers < nil < addresses, addresses by triple."""
    try:
        r1, r2 = _RANK[type(v1)], _RANK[type(v2)]
    except KeyError:
        r1, r2 = _rank(v1), _rank(v2)
    if r1 != r2:
        return r1 < r2
    return r1 != 1 and v1 < v2


def format_value(v: Value) -> str:
    """An int's digits, nil or addr(n,u,i), for any int: one past
    str()'s digit limit is printed in parts by lang.int_digits."""
    try:
        return repr(v)
    except ValueError:
        return int_digits(v)


# numerals without leading zeros: every address has one spelling, its repr
_ADDR_RE = re.compile(r"addr\(([1-9][0-9]*),([1-9][0-9]*),([1-9][0-9]*)\)\Z")


def parse_addr(text: str) -> Address | None:
    """Read the repr form addr(n,u,i); None when text is not that shape."""
    m = _ADDR_RE.match(text)
    if m is None:
        return None
    try:
        return Address(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None
