"""System-event records captured by the (simulated) kernel tracer.

Each event carries the two identifiers the paper uses for filtering and
causality:

- the **context identifier** ``<hostIP, programName, processID,
  threadID>`` filters noise from unrelated processes and establishes
  intra-Servpod causality, and
- the **message identifier** ``<senderIP, senderPort, receiverIP,
  receiverPort, messageSize>`` filters unrelated communications and
  establishes inter-Servpod causality.

A captured stream is an :class:`EventTable`: one numpy column per field,
sorted once when the table is built. :class:`SysEvent` is its row type —
iterating a table yields rows, and :meth:`EventTable.from_events` builds a
table from rows — so hand-written or corrupted streams go through the
same matching code as emitted ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np


class EventType(enum.Enum):
    """The four kernel events the tracer records (§3.3)."""

    ACCEPT = "ACCEPT"   # syscall_accept — acceptance of a request
    RECV = "RECV"       # tcp_rcvmsg — receiving a data package
    SEND = "SEND"       # tcp_sendmsg — sending a data package
    CLOSE = "CLOSE"     # syscall_close — close of a request call


@dataclass(frozen=True)
class ContextId:
    """``<hostIP, programName, processID, threadID>``."""

    host_ip: str
    program: str
    pid: int
    tid: int

    def same_thread(self, other: "ContextId") -> bool:
        """True when two events ran on the same thread of the same process."""
        return self == other


@dataclass(frozen=True)
class MessageId:
    """``<senderIP, senderPort, receiverIP, receiverPort, messageSize>``."""

    sender_ip: str
    sender_port: int
    receiver_ip: str
    receiver_port: int
    size: int

    def reversed(self) -> "MessageId":
        """The reply direction of this flow (size not preserved)."""
        return MessageId(
            sender_ip=self.receiver_ip,
            sender_port=self.receiver_port,
            receiver_ip=self.sender_ip,
            receiver_port=self.sender_port,
            size=self.size,
        )

    @property
    def flow(self) -> tuple:
        """The 4-tuple identifying the connection direction (ignores size)."""
        return (self.sender_ip, self.sender_port, self.receiver_ip, self.receiver_port)


@dataclass(frozen=True)
class SysEvent:
    """One captured kernel event.

    ``timestamp`` is in milliseconds since the capture started. ``request_id``
    is ground truth carried only for test assertions — the matcher never
    reads it (the whole point of the tracer is that the kernel does not
    know which request an event belongs to).
    """

    etype: EventType
    timestamp: float
    context: ContextId
    message: Optional[MessageId] = None
    request_id: int = -1

    def __post_init__(self) -> None:
        if self.etype in (EventType.RECV, EventType.SEND) and self.message is None:
            raise ValueError(f"{self.etype.value} events must carry a message id")


#: Event types in the string order of their values; the ``etype`` column
#: of an :class:`EventTable` holds an event's index here (its rank).
ETYPES: Tuple[EventType, ...] = tuple(sorted(EventType, key=lambda t: t.value))
ACCEPT, CLOSE, RECV, SEND = (
    ETYPES.index(t)
    for t in (EventType.ACCEPT, EventType.CLOSE, EventType.RECV, EventType.SEND)
)

#: The columns of an :class:`EventTable` and their dtypes. String fields
#: (IPs, program names) are codes into the table's ``strings``; the
#: message columns of ACCEPT/CLOSE rows (no message id) hold -1.
COLUMNS: Dict[str, type] = {
    "timestamp": np.float64,
    "etype": np.int8,
    "host": np.int64,
    "program": np.int64,
    "pid": np.int64,
    "tid": np.int64,
    "src_ip": np.int64,
    "src_port": np.int64,
    "dst_ip": np.int64,
    "dst_port": np.int64,
    "size": np.int64,
    "request_id": np.int64,
}


class EventTable:
    """A captured event stream, one numpy column per field.

    Each name in :data:`COLUMNS` is an attribute holding that column.
    Rows are sorted once, when the table is built, by (timestamp, host IP,
    thread id, event type) with a stable sort, so events with equal keys
    keep their capture order. IPs compare as strings and event types by
    their values. Subsets taken with :meth:`take` keep that order, so no
    consumer sorts again.
    """

    def __init__(self, strings: Tuple[str, ...], columns: Dict[str, np.ndarray]) -> None:
        #: Interned strings (unique), indexed by the string-valued columns.
        self.strings = strings
        for name in COLUMNS:
            setattr(self, name, columns[name])

    @classmethod
    def from_columns(
        cls, strings: Sequence[str], columns: Dict[str, Sequence]
    ) -> "EventTable":
        """Sort unsorted columns into a table."""
        strings = tuple(strings)
        cols = {name: np.asarray(columns[name], dtype=dtype) for name, dtype in COLUMNS.items()}
        host_rank = np.unique(np.asarray(strings, dtype=str), return_inverse=True)[1]
        order = np.lexsort(
            (cols["etype"], cols["tid"], host_rank[cols["host"]], cols["timestamp"])
        )
        return cls(strings, {name: col[order] for name, col in cols.items()})

    @classmethod
    def from_events(cls, events: Union["EventTable", Iterable[SysEvent]]) -> "EventTable":
        """A table holding ``events`` (returned as is when already a table)."""
        if isinstance(events, EventTable):
            return events
        codes: Dict[str, int] = {}
        code = lambda s: codes.setdefault(s, len(codes))  # noqa: E731
        rank = {t: i for i, t in enumerate(ETYPES)}
        rows = []
        for e in events:
            ctx, msg = e.context, e.message
            if msg is None:
                message = (-1, -1, -1, -1, -1)
            else:
                message = (
                    code(msg.sender_ip), msg.sender_port,
                    code(msg.receiver_ip), msg.receiver_port, msg.size,
                )
            rows.append((
                e.timestamp, rank[e.etype], code(ctx.host_ip), code(ctx.program),
                ctx.pid, ctx.tid, *message, e.request_id,
            ))
        fields = zip(*rows) if rows else ([] for _ in COLUMNS)
        return cls.from_columns(list(codes), dict(zip(COLUMNS, fields)))

    def take(self, index: np.ndarray) -> "EventTable":
        """The rows selected by a boolean mask or ascending indices."""
        return EventTable(
            self.strings, {name: getattr(self, name)[index] for name in COLUMNS}
        )

    def __len__(self) -> int:
        return len(self.timestamp)

    def __iter__(self) -> Iterator[SysEvent]:
        strings = self.strings
        columns = zip(*(getattr(self, name).tolist() for name in COLUMNS))
        for t, etype, host, program, pid, tid, src, sport, dst, dport, size, rid in columns:
            ctx = ContextId(strings[host], strings[program], pid, tid)
            msg = None
            if src >= 0:
                msg = MessageId(strings[src], sport, strings[dst], dport, size)
            yield SysEvent(ETYPES[etype], t, ctx, msg, rid)

    def row(self, i: int) -> SysEvent:
        """Row ``i`` as a :class:`SysEvent`."""
        return next(iter(self.take(slice(i, i + 1))))

    @cached_property
    def codes(self) -> Dict[str, int]:
        """String → its code in this table."""
        return {s: i for i, s in enumerate(self.strings)}

    @cached_property
    def context_code(self) -> np.ndarray:
        """Per row: a code shared exactly by rows with equal context ids."""
        return _group_codes(self.host, self.program, self.pid, self.tid)

    @cached_property
    def flow_code(self) -> np.ndarray:
        """Per row: a code shared exactly by rows with equal message flows."""
        return _group_codes(self.src_ip, self.src_port, self.dst_ip, self.dst_port)


def _group_codes(*keys: np.ndarray) -> np.ndarray:
    """Dense codes equal exactly where every key column is equal."""
    n = len(keys[0])
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort(keys)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for key in keys:
        sorted_key = key[order]
        new[1:] |= sorted_key[1:] != sorted_key[:-1]
    codes = np.empty(n, dtype=np.int64)
    codes[order] = np.cumsum(new) - 1
    return codes
