"""Vertex-cover-parameterized machinery: valid pairs, types, equations.

Each name is imported from its defining submodule (`context`, `pairs`,
`typespace`, `system`, `reconstruct`); only the two names the benchmark
harness takes from the package are re-exported here.
"""

from .system import export_ilp, parse_ilp
