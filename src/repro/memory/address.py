"""Page arithmetic for address translation.

The RNIC translation table is keyed by 4 KB pages; an access spanning a
page boundary touches every page in its range.
"""

from __future__ import annotations

__all__ = ["page_span", "align_down", "align_up"]


def page_span(offset: int, length: int, page_size: int) -> range:
    """Indices of the pages touched by ``[offset, offset+length)``.

    Zero-length accesses still touch the page containing ``offset``
    (the RNIC fetches the translation before it knows there is no data).
    """
    if offset < 0:
        raise ValueError(f"negative offset: {offset}")
    if length < 0:
        raise ValueError(f"negative length: {length}")
    if page_size <= 0:
        raise ValueError(f"page size must be positive: {page_size}")
    first = offset // page_size
    last = (offset + max(length, 1) - 1) // page_size
    return range(first, last + 1)


def align_down(value: int, alignment: int) -> int:
    if alignment <= 0:
        raise ValueError(f"alignment must be positive: {alignment}")
    return value - value % alignment


def align_up(value: int, alignment: int) -> int:
    if alignment <= 0:
        raise ValueError(f"alignment must be positive: {alignment}")
    return -(-value // alignment) * alignment
