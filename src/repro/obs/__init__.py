"""repro.obs — execution observability.

Structured event tracing (:mod:`.events`), per-block timeline
reconstruction with wait-time decomposition (:mod:`.timeline`), Chrome
trace / ASCII Gantt export (:mod:`.export`), abort attribution and hot-key
contention ranking (:mod:`.attribution`), and the ``repro profile`` driver
(:mod:`.profile`).  See docs/OBSERVABILITY.md for the event taxonomy.
"""

from .attribution import AbortAttribution, AbortRecord, KeyContention, contract_namer, format_key
from .events import (
    BackpressureChanged,
    CommitPersisted,
    CommitSealed,
    CommitStarted,
    EventBus,
    MempoolEvicted,
    MempoolRejected,
    NullSink,
    NULL_BUS,
    ObsEvent,
    SNAPSHOT_WRITER,
    StageCompleted,
    UNKNOWN_WRITER,
    WorkloadChunkCommitted,
)
from .export import build_chrome_trace, chrome_trace_events, render_gantt_ascii, write_chrome_trace
from .timeline import (
    CATEGORIES,
    EXEC,
    LOCK_WAIT,
    QUEUE_WAIT,
    VERSION_WAIT,
    Span,
    Timeline,
    TxTimeline,
    build_timeline,
    format_breakdown,
)
from .profile import ProfileReport, ProfileSection, profile_to_file, run_profile

__all__ = [
    "AbortAttribution", "AbortRecord", "KeyContention", "contract_namer",
    "format_key", "BackpressureChanged", "CommitPersisted", "CommitSealed",
    "CommitStarted", "EventBus", "MempoolEvicted", "MempoolRejected",
    "NullSink", "NULL_BUS", "ObsEvent",
    "SNAPSHOT_WRITER", "StageCompleted", "UNKNOWN_WRITER",
    "WorkloadChunkCommitted", "build_chrome_trace",
    "chrome_trace_events", "render_gantt_ascii", "write_chrome_trace",
    "CATEGORIES", "EXEC", "LOCK_WAIT", "QUEUE_WAIT", "VERSION_WAIT",
    "Span", "Timeline", "TxTimeline", "build_timeline", "format_breakdown",
    "ProfileReport", "ProfileSection", "profile_to_file", "run_profile",
]
