"""JSON Schemas for every machine-readable CLI output."""

_WORD = {"type": "array",
         "items": {"type": "array",
                   "prefixItems": [{"type": "string"}, {"enum": [1, -1]}],
                   "minItems": 2, "maxItems": 2}}

_PRESENTATION = {
    "type": "object",
    "properties": {
        "generators": {"type": "array", "items": {"type": "string"}},
        "relators": {"type": "array", "items": _WORD},
        "symbolic_relators": {
            "type": "array",
            "items": {"type": "object",
                      "properties": {"lhs": _WORD,
                                     "base": {"type": "string"},
                                     "param": {"type": "string"}},
                      "required": ["lhs", "base", "param"]},
        },
        "kind": {"type": "string"},
        "index": {"type": "integer", "minimum": 1},
        "text": {"type": "string"},
    },
    "required": ["generators", "relators", "text"],
}

_DESCRIPTOR = {
    "type": ["object", "null"],
    "properties": {
        "kind": {"enum": ["trivial", "cyclic", "direct_product", "semidirect"]},
        "n": {"type": ["integer", "null"]},
        "m": {"type": ["integer", "null"]},
        "twist": {"type": ["integer", "null"]},
        "text": {"type": "string"},
    },
    "required": ["kind", "text"],
}

_NORMALIZER_SPEC = {
    "type": "object",
    "properties": {
        "presentation": _PRESENTATION,
        "conjugation_exponents": {"type": "object", "additionalProperties": {"type": "integer"}},
        "provenance": {"enum": ["built_in", "user_supplied", "symbolic"]},
        "descriptor": _DESCRIPTOR,
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["presentation", "conjugation_exponents", "provenance", "descriptor", "notes"],
}

_CLASSIFICATION = {
    "type": ["object", "null"],
    "properties": {
        "case": {"enum": ["i", "ii_a", "ii_b", "iii"]},
        "twist": {"type": ["integer", "null"]},
        "lmod": _DESCRIPTOR,
        "normalizer": _DESCRIPTOR,
        "centralizer": _DESCRIPTOR,
        "genus": {"type": "integer"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["case", "normalizer", "centralizer"],
}

STABILIZER_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "c": {"type": "array", "items": {"type": "integer"}},
        "H1_order": {"type": "integer", "minimum": 1},
        "H2_order": {"type": "integer", "minimum": 1},
        "units": {"type": "array", "items": {"type": "integer"}},
        "B": {"type": "array",
              "items": {"type": "array", "items": {"type": "integer"},
                        "minItems": 2, "maxItems": 2}},
        "C": {"type": "object", "additionalProperties": {"type": "string"}},
        "index_mod_lmod": {"type": "integer", "minimum": 1},
        "index_n_c": {"type": "integer", "minimum": 1},
    },
    "required": ["n", "c", "H1_order", "H2_order", "units", "B", "C",
                 "index_mod_lmod", "index_n_c"],
}

VALIDATION_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "dataset": {"type": "string"},
        "valid": {"type": "boolean"},
        "genus": {"type": ["integer", "null"]},
        "violations": {"type": "array", "items": {"type": "string"}},
        "flags": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["dataset", "valid", "genus", "violations", "flags"],
}

ANALYSIS_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "dataset": {"type": "string"},
        "genus": {"type": "integer", "minimum": 2},
        "gamma": {"type": "object",
                  "properties": {"n": {"type": "integer"},
                                 "c": {"type": "array", "items": {"type": "integer"}}},
                  "required": ["n", "c"]},
        "stab": STABILIZER_SCHEMA,
        "lmod_presentation": _PRESENTATION,
        "clmod_presentation": _PRESENTATION,
        "classification": _CLASSIFICATION,
        "flags": {"type": "object", "additionalProperties": {"type": "boolean"}},
    },
    "required": ["schema", "dataset", "genus", "gamma", "stab",
                 "lmod_presentation", "clmod_presentation", "classification", "flags"],
}

PRESENT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "dataset": {"type": "string"},
        "normalizer": _NORMALIZER_SPEC,
        "centralizer": _NORMALIZER_SPEC,
    },
    "required": ["dataset", "normalizer", "centralizer"],
}

TABLE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema": {"const": 1},
        "rows": {
            "type": "array",
            "minItems": 8, "maxItems": 8,
            "items": {
                "type": "object",
                "properties": {
                    "index": {"type": "integer"},
                    "dataset": {"type": "string"},
                    "normalizer": _DESCRIPTOR,
                    "centralizer": _DESCRIPTOR,
                    "case": {"type": "string"},
                    "lifted_class": {"type": "null"},
                },
                "required": ["index", "dataset", "normalizer", "centralizer"],
            },
        },
    },
    "required": ["schema", "rows"],
}

VERIFY_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "ok": {"type": "boolean"},
        "checks": {"type": "array",
                   "items": {"type": "object",
                             "properties": {"name": {"type": "string"},
                                            "ok": {"type": "boolean"}},
                             "required": ["name", "ok"]}},
        "note": {"type": "string"},
    },
    "required": ["ok", "checks"],
}

ENUMERATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "genus": {"type": "integer"},
        "count": {"type": "integer"},
        "datasets": {"type": "array", "items": {"type": "string"}},
    },
    "required": ["genus", "count", "datasets"],
}
