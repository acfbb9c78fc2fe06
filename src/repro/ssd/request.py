"""Host I/O requests.

An :class:`IoRequest` addresses a contiguous LPN extent.  The ``kind``
records how the request entered the device -- directly from the
application (``DIRECT``), from the page-cache flusher (``WRITEBACK``) or
as a read/trim -- which the experiments use to attribute traffic (the
paper's Table 1 write-type breakdown) and which the predictors use to
separate their two estimation paths.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

_request_ids = itertools.count()


class IoKind(enum.Enum):
    """How a request entered the device."""

    READ = "read"
    DIRECT_WRITE = "direct_write"      #: O_SYNC / O_DIRECT application write
    WRITEBACK = "writeback"            #: page-cache flusher write
    TRIM = "trim"


@dataclass
class IoRequest:
    """One host command against a contiguous logical extent.

    Attributes:
        kind: request class, see :class:`IoKind`.
        lpn: first logical page number.
        page_count: extent length in pages.
        on_complete: optional zero-argument callback invoked when the
            device finishes service (callers that need the request close
            over it).
        submit_time / start_time / complete_time: filled by the device for
            latency accounting (integer nanoseconds; -1 = not yet).
    """

    kind: IoKind
    lpn: int
    page_count: int
    on_complete: Optional[Callable[[], None]] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    submit_time: int = -1
    start_time: int = -1
    complete_time: int = -1

    def __post_init__(self) -> None:
        if self.page_count <= 0:
            raise ValueError(f"page_count must be positive, got {self.page_count}")
        if self.lpn < 0:
            raise ValueError(f"lpn must be >= 0, got {self.lpn}")

    @property
    def lpns(self) -> List[int]:
        """The logical pages touched, in order."""
        return list(range(self.lpn, self.lpn + self.page_count))

    @property
    def is_write(self) -> bool:
        return self.kind in (IoKind.DIRECT_WRITE, IoKind.WRITEBACK)

    def latency(self) -> int:
        """Submit-to-complete latency; valid after completion."""
        if self.complete_time < 0 or self.submit_time < 0:
            raise ValueError("request not completed yet")
        return self.complete_time - self.submit_time

    def bytes_size(self, page_size: int) -> int:
        return self.page_count * page_size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<IoRequest #{self.request_id} {self.kind.value} "
            f"lpn={self.lpn}+{self.page_count}>"
        )
