"""CONC003 fixed: create the fork pool first, then start threads."""

import threading
from concurrent.futures import ProcessPoolExecutor


def serve(run_server, warm):
    pool = ProcessPoolExecutor(max_workers=2)
    warm(pool)
    server_thread = threading.Thread(target=run_server, daemon=True)
    server_thread.start()
    return pool
