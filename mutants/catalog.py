"""The recorded mutants: each must be killed by the tests it names.

A record is a dict: ``name``; ``file``, relative to the repository root;
``old``, text found exactly once in that file; ``new``, what replaces it;
``tests``, pytest node ids that must each fail on the mutant and pass
without it. When a change rewrites the mutated code, it carries the
mutant along: it updates ``old`` and ``new`` to the code's new form, or
deletes the record and says why in CHANGES.md.
"""

INDEXED = "src/nusets/indexed.py"

FACES = "tests/test_frames_oracle.py::test_face_maps_agree_with_restriction"
ROWS = "tests/test_frames_oracle.py::test_rows_name_the_restricted_faces"
BOUNDARY = "tests/test_equivalence.py::test_boundary_restriction_compatibility"
FROZEN = "tests/test_indexed.py::test_restr_frame_frozen_example"
VALID = "tests/test_indexed.py::test_validate_clean"
COH = "tests/test_indexed.py::test_coh_checks_empty_on_valid"
MODES = "tests/test_memo.py::test_three_restriction_modes_agree[{}]"
SCOPE = ("tests/test_small_scope.py::"
         "test_every_small_total_set_is_lawful_both_ways[{}]")
SCOPE_NU1 = SCOPE.format("1-3-5-56-44")
SCOPE_NU2 = SCOPE.format("2-2-5-237-202")


def _indexed(name, old, new, *tests):
    return {"name": name, "file": INDEXED, "old": old, "new": new,
            "tests": list(tests)}


MUTANTS = [
    # restriction: a layer, its components and the frame they sit over
    _indexed("layer-base-at-stratum-p+1",
             "base = restr_frame(omega, p, d, within)",
             "base = restr_frame(omega, p + 1, d, within)",
             MODES.format("cube3"), FACES),
    _indexed("layer-base-in-direction-eps",
             "base = restr_frame(omega, p, d, within)",
             "base = restr_frame(eps, p, d, within)",
             FACES, ROWS),
    _indexed("layer-components-reversed",
             "LayerVal(n - 1, p, tuple(comps))",
             "LayerVal(n - 1, p, tuple(comps[::-1]))",
             FROZEN, VALID),
    _indexed("layer-components-in-direction-omega",
             "restr_painting(eps, q, base, comp, within)",
             "restr_painting(omega, q, base, comp, within)",
             COH, SCOPE_NU2),
    # restriction: a frame, stratum by stratum
    _indexed("frame-top-layer-at-stratum-p-1",
             "top = restr_layer(eps, q - 1, head_frame,",
             "top = restr_layer(eps, p - 1, head_frame,",
             FACES, BOUNDARY),
    _indexed("frame-recursion-in-direction-eps+1",
             "head = restr_frame(eps, q, head_frame, within)",
             "head = restr_frame((eps + 1) % within.nu, q, head_frame, "
             "within)",
             FACES, BOUNDARY),
    # restriction: a painting
    _indexed("painting-at-p==q-component-eps+1",
             "return first[eps]",
             "return first[(eps + 1) % len(first)]",
             FROZEN, ROWS),
    _indexed("painting-first-layer-in-direction-0",
             "first = restr_layer(eps, q - 1, d, c.first_layer, within)",
             "first = restr_layer(0, q - 1, d, c.first_layer, within)",
             VALID, SCOPE_NU2),
    _indexed("painting-keeps-the-input-cell",
             "(first,) + rest.layers, rest.cell)",
             "(first,) + rest.layers, c.cell)",
             MODES.format("simplex5"), SCOPE_NU1),
    _indexed("painting-layers-reversed",
             "(first,) + rest.layers, rest.cell)",
             "((first,) + rest.layers)[::-1], rest.cell)",
             VALID, SCOPE_NU1),
]
