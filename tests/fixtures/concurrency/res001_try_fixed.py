"""RES001 fixed: the ``try`` ends at the binding, so its handler only
runs when the engine was never made (a completed assignment cannot
raise); the warm-up query gets a handler that closes the engine."""

from repro.engine.factory import wrap_index


def open_warm_engine(corpus, index, pattern):
    try:
        engine = wrap_index(corpus, index)
    except BaseException:
        corpus.close()
        raise
    try:
        engine.search(pattern)
    except BaseException:
        engine.close()
        raise
    return engine
