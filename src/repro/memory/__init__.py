"""Remote-memory substrate: registered buffers, allocation, page math."""

from repro.memory.address import page_span
from repro.memory.buffer import RdmaBuffer
from repro.memory.allocator import RegionAllocator

__all__ = ["RdmaBuffer", "RegionAllocator", "page_span"]
