"""Fixed-length bit vectors backed by Python integers.

The vertical mining algorithms (§3.4 and §4) operate on one bit vector per
edge item: bit ``i`` is set when the item occurs in transaction ``i`` of the
current sliding window.  Python integers give arbitrary-precision bitwise
operations and a constant-time ``int.bit_count`` popcount (the package
requires Python >= 3.10, so it is called directly in the hot loops), which
keeps the implementation compact, exact and fast enough for the benchmark
harness.

Bit position 0 is the *first* (oldest) transaction column of the window.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.exceptions import StorageError


class BitVector:
    """A fixed-length sequence of bits with set-style operations.

    Parameters
    ----------
    length:
        Number of bit positions (transaction columns).
    bits:
        Optional integer whose binary representation provides the initial
        bits; it must fit within ``length`` bits.
    """

    __slots__ = ("_length", "_bits")

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise StorageError(f"bit vector length must be non-negative, got {length}")
        if bits < 0:
            raise StorageError("bit pattern must be a non-negative integer")
        if bits >> length:
            raise StorageError(
                f"bit pattern 0b{bits:b} does not fit in {length} positions"
            )
        self._length = length
        self._bits = bits

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_positions(cls, length: int, positions: Iterable[int]) -> "BitVector":
        """Build a vector of ``length`` bits with the given positions set."""
        bits = 0
        for position in positions:
            if position < 0 or position >= length:
                raise StorageError(
                    f"bit position {position} out of range for length {length}"
                )
            bits |= 1 << position
        return cls(length, bits)

    @classmethod
    def from_bools(cls, flags: Iterable[bool]) -> "BitVector":
        """Build a vector from an iterable of booleans (index = position)."""
        bits = 0
        length = 0
        for index, flag in enumerate(flags):
            if flag:
                bits |= 1 << index
            length = index + 1
        return cls(length, bits)

    @classmethod
    def zeros(cls, length: int) -> "BitVector":
        """An all-zero vector."""
        return cls(length, 0)

    @classmethod
    def ones(cls, length: int) -> "BitVector":
        """An all-one vector."""
        return cls(length, (1 << length) - 1 if length else 0)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def length(self) -> int:
        """Number of bit positions."""
        return self._length

    @property
    def bits(self) -> int:
        """The underlying integer bit pattern."""
        return self._bits

    def get(self, position: int) -> bool:
        """Whether the bit at ``position`` is set."""
        self._check_position(position)
        return bool((self._bits >> position) & 1)

    def count(self) -> int:
        """Number of set bits (the row sum of §3.4)."""
        return self._bits.bit_count()

    def positions(self) -> List[int]:
        """Sorted list of set bit positions."""
        result: List[int] = []
        bits = self._bits
        position = 0
        while bits:
            if bits & 1:
                result.append(position)
            bits >>= 1
            position += 1
        return result

    def is_empty(self) -> bool:
        """True when no bit is set."""
        return self._bits == 0

    # ------------------------------------------------------------------ #
    # mutation-free updates (return new vectors)
    # ------------------------------------------------------------------ #
    def with_bit(self, position: int, value: bool = True) -> "BitVector":
        """Return a copy with ``position`` set (or cleared)."""
        self._check_position(position)
        if value:
            return BitVector(self._length, self._bits | (1 << position))
        return BitVector(self._length, self._bits & ~(1 << position))

    def extended(self, extra: int) -> "BitVector":
        """Return a copy with ``extra`` zero positions appended at the end."""
        if extra < 0:
            raise StorageError(f"cannot extend by a negative amount ({extra})")
        return BitVector(self._length + extra, self._bits)

    def dropped_prefix(self, count: int) -> "BitVector":
        """Return a copy with the first ``count`` positions removed.

        This is the window-slide operation: dropping the oldest batch's
        columns shifts every remaining column left.
        """
        if count < 0:
            raise StorageError(f"cannot drop a negative number of positions ({count})")
        if count > self._length:
            raise StorageError(
                f"cannot drop {count} positions from a vector of length {self._length}"
            )
        return BitVector(self._length - count, self._bits >> count)

    def sliced(self, start: int, stop: int) -> "BitVector":
        """Return the bits in ``[start, stop)`` as a new vector."""
        if not (0 <= start <= stop <= self._length):
            raise StorageError(
                f"invalid slice [{start}, {stop}) for length {self._length}"
            )
        width = stop - start
        mask = (1 << width) - 1
        return BitVector(width, (self._bits >> start) & mask)

    # ------------------------------------------------------------------ #
    # set-style operations
    # ------------------------------------------------------------------ #
    def intersect(self, other: "BitVector") -> "BitVector":
        """Bitwise AND (co-occurrence of two items)."""
        self._check_compatible(other)
        return BitVector(self._length, self._bits & other._bits)

    def union(self, other: "BitVector") -> "BitVector":
        """Bitwise OR."""
        self._check_compatible(other)
        return BitVector(self._length, self._bits | other._bits)

    def difference(self, other: "BitVector") -> "BitVector":
        """Bits set here but not in ``other``."""
        self._check_compatible(other)
        return BitVector(self._length, self._bits & ~other._bits)

    def intersection_count(self, other: "BitVector") -> int:
        """Popcount of the intersection without materialising it."""
        self._check_compatible(other)
        return (self._bits & other._bits).bit_count()

    def __and__(self, other: "BitVector") -> "BitVector":
        return self.intersect(other)

    def __or__(self, other: "BitVector") -> "BitVector":
        return self.union(other)

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    def to_bytes(self) -> bytes:
        """Little-endian packed bytes (``ceil(length / 8)`` bytes)."""
        nbytes = (self._length + 7) // 8
        return self._bits.to_bytes(nbytes, "little")

    @classmethod
    def from_bytes(cls, data: bytes, length: int) -> "BitVector":
        """Inverse of :meth:`to_bytes`."""
        bits = int.from_bytes(data, "little")
        mask = (1 << length) - 1 if length else 0
        return cls(length, bits & mask)

    def to_bitstring(self) -> str:
        """Human-readable bit string, position 0 first (as in the paper's rows)."""
        return "".join("1" if self.get(i) else "0" for i in range(self._length))

    @classmethod
    def from_bitstring(cls, text: str) -> "BitVector":
        """Parse a string of ``0``/``1`` characters, position 0 first."""
        cleaned = text.replace(" ", "").replace(";", "")
        if any(ch not in "01" for ch in cleaned):
            raise StorageError(f"invalid bit string: {text!r}")
        return cls.from_bools(ch == "1" for ch in cleaned)

    # ------------------------------------------------------------------ #
    # dunder plumbing
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[bool]:
        for position in range(self._length):
            yield self.get(position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._length == other._length and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._length, self._bits))

    def __repr__(self) -> str:
        preview = self.to_bitstring() if self._length <= 32 else f"{self.count()} set"
        return f"BitVector(length={self._length}, {preview})"

    # ------------------------------------------------------------------ #
    # internal checks
    # ------------------------------------------------------------------ #
    def _check_position(self, position: int) -> None:
        if position < 0 or position >= self._length:
            raise StorageError(
                f"bit position {position} out of range for length {self._length}"
            )

    def _check_compatible(self, other: "BitVector") -> None:
        if not isinstance(other, BitVector):
            raise StorageError(f"expected BitVector, got {type(other).__name__}")
        if self._length != other._length:
            raise StorageError(
                f"bit vector lengths differ: {self._length} vs {other._length}"
            )
