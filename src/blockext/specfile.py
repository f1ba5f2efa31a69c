"""The .blockspec input format: flat key-value lines with sections.

A spec describes one block datum: the prime, the cyclic invariants of D,
the generators of E as permutations with their action matrices on D, and
numeric options.  The grammar is line-based and diff-friendly:

    format: blockspec 1
    name: example-a
    p: 3
    d_orders: 1

    [generator e]
    perm: 1 2 3 0
    action: -1

    [options]
    phi_exponent: 1

Action rows are separated by semicolons, entries by spaces.  Unknown
keys, unknown sections, and duplicates are rejected with line numbers.
parse(serialize(s)) returns s exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SpecValidationError
from .groups import BlockContext, validate_block_spec

FORMAT_LINE = "blockspec 1"
OPTION_KEYS = ("enum_bound", "order_bound", "phi_exponent", "precision",
               "size_guard")
BOUND_KEYS = ("precision", "order_bound", "enum_bound", "size_guard")


@dataclass(frozen=True)
class BlockSpec:
    """Parsed, unvalidated spec; validation happens in to_context."""
    name: str
    p: int
    d_orders: tuple
    generators: tuple   # (name, perm tuple, action row tuples)
    options: tuple      # sorted (key, int) pairs

    def option(self, key, default=None):
        for k, v in self.options:
            if k == key:
                return v
        return default


def _fail(lineno, message):
    raise SpecValidationError("bad-spec-file", f"line {lineno}: {message}")


def _ints(lineno, text, what):
    out = []
    for tok in text.split():
        try:
            out.append(int(tok))
        except ValueError:
            _fail(lineno, f"{what} entry {tok!r} is not an integer")
    return tuple(out)


def parse_spec(text: str) -> BlockSpec:
    top: dict = {}
    generators: list = []
    opts: dict = {}
    section = "top"
    current_gen = None
    gen_names = set()

    def close_gen(lineno):
        if current_gen is None:
            return
        if current_gen.get("perm") is None or current_gen.get("action") is None:
            _fail(lineno, f"generator {current_gen['name']!r} needs both "
                          f"perm and action")
        generators.append((current_gen["name"], current_gen["perm"],
                           current_gen["action"]))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                _fail(lineno, "unterminated section header")
            header = line[1:-1].strip()
            close_gen(lineno)
            current_gen = None
            if header == "options":
                section = "options"
            elif header.startswith("generator "):
                section = "generator"
                name = header[len("generator "):].strip()
                if not name:
                    _fail(lineno, "generator needs a name")
                if name in gen_names:
                    _fail(lineno, f"duplicate generator {name!r}")
                gen_names.add(name)
                current_gen = {"name": name, "perm": None, "action": None}
            else:
                _fail(lineno, f"unknown section {header!r}")
            continue
        if ":" not in line:
            _fail(lineno, "expected 'key: value'")
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if section == "top":
            if key in top:
                _fail(lineno, f"duplicate key {key!r}")
            if key == "format":
                if value != FORMAT_LINE:
                    _fail(lineno, f"unsupported format {value!r}")
                top["format"] = value
            elif key == "name":
                top["name"] = value
            elif key == "p":
                top["p"] = _ints(lineno, value, "p")[0]
            elif key == "d_orders":
                top["d_orders"] = _ints(lineno, value, "d_orders")
            else:
                _fail(lineno, f"unknown key {key!r}")
        elif section == "generator":
            if key == "perm":
                if current_gen["perm"] is not None:
                    _fail(lineno, "duplicate perm")
                current_gen["perm"] = _ints(lineno, value, "perm")
            elif key == "action":
                if current_gen["action"] is not None:
                    _fail(lineno, "duplicate action")
                rows = [r for r in value.split(";")]
                current_gen["action"] = tuple(
                    _ints(lineno, r, "action") for r in rows)
            else:
                _fail(lineno, f"unknown generator key {key!r}")
        else:
            if key not in OPTION_KEYS:
                _fail(lineno, f"unknown option {key!r}")
            if key in opts:
                _fail(lineno, f"duplicate option {key!r}")
            opts[key] = _ints(lineno, value, key)[0]

    close_gen("end")
    for need in ("format", "name", "p", "d_orders"):
        if need not in top:
            raise SpecValidationError("bad-spec-file",
                                      f"missing required key {need!r}")
    if not generators:
        raise SpecValidationError("bad-spec-file",
                                  "at least one generator is required")
    return BlockSpec(top["name"], top["p"], top["d_orders"],
                     tuple(generators), tuple(sorted(opts.items())))


def serialize_spec(spec: BlockSpec) -> str:
    lines = [f"format: {FORMAT_LINE}",
             f"name: {spec.name}",
             f"p: {spec.p}",
             f"d_orders: {' '.join(str(n) for n in spec.d_orders)}"]
    for name, perm, action in spec.generators:
        lines.append("")
        lines.append(f"[generator {name}]")
        lines.append(f"perm: {' '.join(str(i) for i in perm)}")
        rows = "; ".join(" ".join(str(a) for a in row) for row in action)
        lines.append(f"action: {rows}")
    if spec.options:
        lines.append("")
        lines.append("[options]")
        for k, v in spec.options:
            lines.append(f"{k}: {v}")
    return "\n".join(lines) + "\n"


def load_spec(path) -> BlockSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_spec(fh.read())
    except OSError as exc:
        raise SpecValidationError("bad-spec-file",
                                  f"cannot read {path}: {exc}") from exc


def check_bounds(values: dict) -> None:
    """Reject a precision, order bound, enumeration bound or size guard
    below 1 as bad input."""
    for key in BOUND_KEYS:
        if values.get(key) is not None and values[key] < 1:
            raise SpecValidationError("bad-spec-file",
                                      f"{key} {values[key]} is below 1")


def to_context(spec: BlockSpec, overrides: dict | None = None) -> BlockContext:
    """Validate and build the block context, options resolved in order
    override > spec file > default.  The context keeps the set ones among
    precision, enum_bound and size_guard, read-only.  A precision, order
    bound, enumeration bound or size guard below 1 is rejected."""
    overrides = overrides or {}

    def pick(key, default=None):
        if overrides.get(key) is not None:
            return overrides[key]
        return spec.option(key, default)

    check_bounds({k: pick(k) for k in BOUND_KEYS})
    gens = [(perm, [list(row) for row in action])
            for _, perm, action in spec.generators]
    G = validate_block_spec(spec.p, list(spec.d_orders), gens,
                            order_bound=pick("order_bound", 512),
                            size_guard=pick("size_guard"))
    keys = ("precision", "enum_bound", "size_guard")
    return BlockContext(G, pick("phi_exponent", 1),
                        {k: pick(k) for k in keys if pick(k) is not None})
