"""Malformed texts of the four grammars, one dict per grammar: each text
must raise ParseError.  Stdlib-only, so the byte manifest can run them
through the CLI without the test extras."""

TRIANGLE = "cge 1\nnodes 3\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n"
BINPACK = "binpack 1\ncapacity 2\nbins 2\nexact 1\nitem 2\nitem 2\n"


INSTANCE_REJECTS = {
    "arabic-indic-digit": TRIANGLE.replace("nodes 3", "nodes ٣"),
    "underscored-int": TRIANGLE.replace("robots 1", "robots 1_0"),
    "fullwidth-digit": TRIANGLE.replace("edge 1 2", "edge 1 ２"),
    "repeated-nodes": TRIANGLE + "nodes 3\n",
    "repeated-init": TRIANGLE + "init 1\n",
    "repeated-robots": TRIANGLE + "robots 2\n",
    "repeated-budget": TRIANGLE.replace("robots 1\n", "robots 1\nbudget 4\nbudget 5\n"),
    "repeated-capacity": BINPACK + "capacity 2\n",
    "repeated-bins": BINPACK + "bins 2\n",
    "repeated-exact": BINPACK + "exact 1\n",
    "nodes-beyond-edges": "cge 1\nnodes 3000000\ninit 0\nrobots 1\nedge 0 1\n",
    "disconnected": "cge 1\nnodes 4\ninit 0\nrobots 1\nedge 0 1\nedge 0 2\nedge 1 2\n",
    "no-robots": TRIANGLE.replace("robots 1", "robots 0"),
    "init-out-of-range": TRIANGLE.replace("init 0", "init 3"),
    "negative-budget": TRIANGLE.replace("robots 1\n", "robots 1\nbudget -1\n"),
}
SOLUTION_REJECTS = {
    "repeated-value": "value 2\nvalue 2\nrobot 1: 0 1 0\n",
    "underscored-vertex": "value 2\nrobot 1: 0 1_0 0\n",
    "arabic-indic-vertex": "value 2\nrobot 1: 0 ١ 0\n",
    "arabic-indic-value": "value ٢\nrobot 1: 0 1 0\n",
    "non-numeric-label": "value 2\nrobot x: 0 1 0\n",
    "colon-label": "value 2\nrobot :: 0 1 0\n",
    "label-with-suffix": "value 2\nrobot 1:x: 0 1 0\n",
    "repeated-label": "value 2\nrobot 7: 0 1 0\nrobot 7: 0 1 0\n",
    "label-not-first": "value 2\nrobot 2: 0 1 0\n",
    "label-skips-a-number": "value 2\nrobot 1: 0 1 0\nrobot 3: 0 1 0\n",
    "zero-padded-label": "value 2\nrobot 01: 0 1 0\n",
    "signed-label": "value 2\nrobot +1: 0 1 0\n",
    "label-without-colon": "value 2\nrobot 1 0 1 0\n",
    # a bad line repeating a good line's tokens still fails its own checks
    "same-text-after-colon": "value 2\nrobot 1: 0 1 0\nrobot 2 x: 0 1 0\n",
    "same-walk-no-label": "value 2\nrobot 1: 0 1 0\nrobot 2 0 1 0\n",
    "same-walk-repeated-label": "value 2\nrobot 1: 0 1 0\nrobot 1: 0 1 0\n",
    "same-leading-vertices": "value 2\nrobot 1: 0 1 0\nrobot 2: 0 1 x\n",
    "open-walk-after-closed": "value 2\nrobot 1: 0 1 0\nrobot 2: 0 1 0 1\n",
    "label-suffix-then-walk-suffix": "value 2\nrobot 1:x: 0 1 0\nrobot 2: x: 0 1 0\n",
}
ILP_REJECTS = {
    "negative-vars": "ilp -1 0\n",
    "negative-constraints": "ilp 0 -1\n",
    "leading-zero-count": "ilp 01 0\nvar x\n",
    "duplicate-var": "ilp 2 0\nvar x\nvar x\n",
    "extra-constraint": "ilp 1 1\nvar x\nc eq1 : 1 x = 2\nc eq1 : 1 x = 2\n",
    "extra-blank-line": "ilp 1 0\nvar x\n\n",
    "missing-final-newline": "ilp 1 1\nvar x\nc eq1 : 1 x = 2",
    "underscored-coefficient": "ilp 1 1\nvar x\nc eq1 : 1_0 x = 2\n",
    "arabic-indic-coefficient": "ilp 1 1\nvar x\nc eq1 : ٣ x = 2\n",
    "plus-signed-coefficient": "ilp 1 1\nvar x\nc eq1 : +1 x = 2\n",
    "double-space": "ilp 1 1\nvar x\nc eq1 :  1 x = 2\n",
}
ASSIGNMENT_REJECTS = {
    "negative-count": "assign -1\n",
    "extra-value": "assign 1\nx 1\ny 2\n",
    "underscored-value": "assign 1\nx 1_0\n",
    "arabic-indic-value": "assign 1\nx ٣\n",
    "double-space": "assign 1\nx  1\n",
    "missing-final-newline": "assign 1\nx 1",
    "duplicate-name": "assign 2\nx 1\nx 2\n",
}
