"""A fresh interpreter becoming ready: import the CLI, load the catalog and
the resolvent table, as every CLI call does before it computes.  Prints the
import and catalog times; the caller times the whole process."""

import json
import time

t0 = time.perf_counter()
import xlat.cli  # noqa: E402,F401

t1 = time.perf_counter()
from xlat.galois import load_catalog, resolvent_table  # noqa: E402

load_catalog()
t2 = time.perf_counter()
resolvent_table()
print(json.dumps({"import_s": t1 - t0, "load_catalog_s": t2 - t1}))
