"""RES003: a module registry pinning open segmented engines.

The host registers a *strong* ``self`` reference in a module registry
of live engines (pinning every host — and the ingest directory its
engine owns — alive forever) and registers its ``weakref.finalize``
only after a background thread already shares it — a crash in between
leaks the registration window."""

import threading
import weakref

from repro.index.segmented import SegmentedFreeEngine

_LIVE_ENGINES = {}


class EngineHost:
    def __init__(self, corpus, seg_index, directory):
        self.engine = SegmentedFreeEngine(
            corpus, seg_index, owned=directory
        )

    def publish(self, token, run):
        _LIVE_ENGINES[token] = self
        refresh_thread = threading.Thread(target=run, daemon=True)
        refresh_thread.start()
        weakref.finalize(self, _LIVE_ENGINES.pop, token, None)
        return refresh_thread

    def close(self):
        self.engine.close()
