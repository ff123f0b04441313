"""RES001 through a re-raising handler: the engine is bound, a later
statement of the same ``try`` raises, and the handler closes only the
corpus, so the engine reaches the exit still open."""

from repro.engine.factory import wrap_index


def open_warm_engine(corpus, index, pattern):
    try:
        engine = wrap_index(corpus, index)
        engine.search(pattern)
    except BaseException:
        corpus.close()
        raise
    return engine
