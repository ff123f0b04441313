"""RES003 fixed: weak registry entry, finalize before sharing."""

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
        _LIVE_ENGINES[token] = weakref.ref(self)
        weakref.finalize(self, _LIVE_ENGINES.pop, token, None)
        refresh_thread = threading.Thread(target=run, daemon=True)
        refresh_thread.start()
        return refresh_thread

    def close(self):
        self.engine.close()
