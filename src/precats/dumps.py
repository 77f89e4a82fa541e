"""Canonical dumps read back as tables of position lists, checked in full,
from their text or file a block, a member and an action at a time, with no
JSON tree.  Loaded by the first ``presheaf.precat_from_dump``."""

import json
import re
from functools import cache, partial
from itertools import chain, repeat
from typing import Iterator, TextIO

from . import theta
from .presheaf import (ActionDomainError, Precat, PresheafError, TabledPrecat, Window,
                       WindowTable, _label_order)


def _positions(f: theta.ThetaMorphism, image, target: dict, source: dict) -> list[int]:
    """``image``, a dump's map of ``f``, as a position list, where ``target``
    and ``source`` index the cells of ``f``'s ends; else its first fault."""
    try:
        if len(image) == len(target):
            return [source[image[c]] for c in target]
    except (KeyError, TypeError):
        pass
    what = f"malformed dump: the map of {f}"
    for k in image:
        if k not in target:
            raise PresheafError(f"{what} has the key {k!r}, no cell of level {f.target}")
    for c in target:
        if c not in image:
            raise PresheafError(f"{what} gives the cell {c!r} no image")
    x = next(x for x in image.values() if type(x) is not str or x not in source)
    raise (ActionDomainError if type(x) is str else PresheafError)(
        f"{what} has the image {x!r}, no cell of level {f.source}")


def _no_float(number: str):
    raise PresheafError(f"malformed dump: the number {number} is not an int")


_DECODER = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)
_SCAN = _DECODER.scan_once
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*").match    # whitespace, at most one separator
# an action as ``presheaf.dump_chunks`` writes it: a map holding no ``}``, lists of ints
_ACTION = re.compile(r'\{"map":(\{[^}]*\}),"morphism":\{"components":(\[(?:\[[0-9,]*\],?)*\]),'
                     r'("source":\[[0-9,]*\],"target":\[[0-9,]*\])\}\}').match
_BLOCK = 1 << 18    # characters read from a dump file at a time
_AHEAD = 1 << 12    # characters held past a step's start, unless the text is run out
_PAST = 12          # the most the decoder reads past a fault's place: ``\\uXXXX\\uXXXX``


def _entry(entry, seen: dict) -> tuple:     # a decoded action's ends, components and map
    m, image = entry["morphism"], entry["map"]
    ends, comps = (tuple(m["source"]), tuple(m["target"])), tuple(map(tuple, m["components"]))
    if not set(map(type, chain(*ends, *comps))) <= {int}:
        raise theta.InvalidMorphismError(f"morphism values must be ints: {m!r}")
    try:    # a map that is no dict or has an unhashable image: _positions names it
        image = seen.setdefault(pair := (tuple(image), tuple(image.values())), pair)
    except (TypeError, AttributeError):
        image = None, image
    return seen.setdefault(ends, ends), seen.setdefault(comps, comps), image


class _Parts(dict):
    """An import's tuples, stored once, and the texts of the parts of each
    action ``_ACTION`` matched (a map's ``{...}``, the components' ``[...]``,
    the ends' ``"source":...``) as ``_entry`` keeps them, decoded the first
    time they are met; the grammar admits ints only and closes each part's
    value at its last character, so a part that decodes decodes whole."""

    def __missing__(self, text: str):
        value = _SCAN("{" + text + "}" if text[0] == '"' else text, 0)[0]
        if text[0] == "{":      # a map: its keys and images
            got = tuple(value), tuple(value.values())
        else:                   # lists of ints: the components, or the ends' values
            got = tuple(map(tuple, value.values() if text[0] == '"' else value))
        got = self[text] = self.setdefault(got, got)
        return got


def _members(data: str | TextIO, seen: _Parts) -> Iterator[tuple[str, object]]:
    """The members of the JSON object ``data``, a text or an open text file
    read ``_BLOCK`` characters at a time, each value decoded whole but a list
    ``actions``: an iterator of its entries as ``_entry`` keeps them, those
    ``_ACTION`` matches looked up in ``seen``, run out before the next member.
    Bad JSON, trailing text included, raises ``json.JSONDecodeError`` placed
    in the whole text; a value that is no object, ``PresheafError``."""
    blocks = iter((data,)) if isinstance(data, str) else iter(partial(data.read, _BLOCK), "")
    # the text held, the last end a step may take in it (a number ends 3 characters
    # before the text does: ``1e+5``), and the length and newlines of the text dropped
    buf, limit, gone, lines, last_nl = "", -1, 0, 0, -1

    def doc() -> str:       # the text dropped, blanked but for its newlines, then the text held
        return " " * (last_nl + 1 - lines) + "\n" * lines + " " * (gone - last_nl - 1) + buf

    def take(step, start: int):     # ``step(buf, start)``, a value and its end, once whole
        nonlocal buf, limit, gone, lines, last_nl
        ahead = _AHEAD      # held past ``start`` before a step, unless the text is run out
        while True:
            while len(buf) - start < ahead and limit < len(buf):
                if (nl := buf.rfind("\n", 0, start)) >= 0:
                    lines, last_nl = lines + buf.count("\n", 0, nl + 1), gone + nl
                gone, buf, start = gone + start, buf[start:], 0     # dropped before the read
                block = next(blocks, "")
                buf += block
                limit = len(buf) - 3 if block else len(buf)
            try:
                got, end = step(buf, start)
                if end <= limit:
                    return got, end
            except (StopIteration, ValueError) as exc:
                # a decode fault more text cannot change: run out, or placed
                # _PAST before the text held and no unterminated string
                at = exc.value if isinstance(exc, StopIteration) else getattr(exc, "pos", None)
                if limit == len(buf) or at is not None and at + _PAST < len(buf) \
                        and not str(exc).startswith("Unterminated string"):
                    _DECODER.raw_decode(doc(), gone + start)    # the whole text's fault
                    raise
            ahead = len(buf) - start + 1

    def sep(text: str, start: int):     # whitespace and at most one separator, as a step
        return (m := _SEP(text, start)), m.end()

    def action(text: str, start: int):  # a step: the entry at ``start``, as ``_entry`` keeps it
        if m := _ACTION(text, start):   # looked up by its parts' texts, else decoded in full
            try:
                return (seen[m[3]], seen[m[2]], seen[m[1]]), m.end()
            except (ValueError, TypeError):     # a part no JSON value, or an unhashable image
                pass
        got, end = _SCAN(text, start)
        return _entry(got, seen), end

    def items(close: str, step):    # each item of the list or object opened at ``at``
        nonlocal at
        if (m := take(sep, at + 1)[0])[1] != close:
            at = m.start(1)
            while True:
                got, at = take(step, at)
                yield got
                if buf.startswith(",{", at):    # the next object follows at once
                    at += 1
                elif (m := take(sep, at)[0])[1] == ",":
                    at = m.end()
                else:
                    break
            if m[1] != close:
                raise json.JSONDecodeError(f"Expecting ',' or {close!r}", doc(), gone + m.start(1))
        at = m.start(1) + 1

    at = take(sep, 0)[0].start(1)   # where the text not yet read starts
    if other := not buf.startswith("{", at):    # a value that is no object: decoded whole
        got, at = take(_SCAN, at)
    for key in () if other else items("}", _SCAN):
        m = take(sep, at)[0]        # starts at ``at``, wherever a refill moved it
        if type(key) is not str or m[1] != ":":
            raise json.JSONDecodeError("Expecting a key and ':'", doc(), gone + m.start())
        if key == "actions" and buf.startswith("[", m.end()):
            at = m.end()
            yield key, items("]", action)
        else:
            got, at = take(_SCAN, m.end())
            yield key, got
    if (m := take(sep, at)[0]).start(1) < len(buf):   # json.loads: past the whitespace
        raise json.JSONDecodeError("Extra data", doc(), gone + m.start(1 if other else 0))
    if other:
        raise PresheafError(f"malformed dump: a {type(got).__name__}, not an object")


@cache      # every import of a window counts its morphisms
def _window_morphisms(n: int, B: int) -> int:
    window = theta.window_objects(n, B)
    return sum(theta.count_morphisms(s, t) for s in window for t in window)


def read(data: str | dict | TextIO, name: str = "dump") -> Precat:
    """A canonical dump, its JSON text, an open text file or a dict, as a
    ``WindowTable`` of position lists, equal lists stored once, checked in
    full: a dump missing a key or holding a value of the wrong shape raises
    ``PresheafError``.  ``n`` must be an int >= 0 and the window's ``B`` an
    int >= 1 whose levels and morphisms are all listed, each level's
    ``object`` a list of ints >= 1 and its ``cells`` a list of distinct
    strings, each action's ends listed levels, its components a normal form
    of ints and its ``map`` a dict sending each target cell to a source
    cell (else ``ActionDomainError``).  No level or morphism may be listed
    twice.  Whatever forms the process holds, a float is refused, and so is
    a bool among the ends and components: every action of a dict, and every
    action of a text not written as ``presheaf.dump_chunks`` writes one,
    goes through ``_entry``'s type check, and the grammar of a text written
    so admits ints only."""
    def require(ok: bool, what: str):
        if not ok:
            raise PresheafError(f"malformed dump: {what}")

    try:
        top, runs, seen, run = {}, [], _Parts(), None
        for key, value in data.items() if isinstance(data, dict) else _members(data, seen):
            top[key] = value
            if key != "actions":
                continue
            require(isinstance(value, (list, Iterator)), f"actions is a {type(value).__name__}")
            value = map(_entry, value, repeat(seen)) if isinstance(data, dict) else value
            for ends, comps, image in value:    # kept flat, in runs of equal ends
                if ends is not run:
                    runs.append((run := ends, group := []))
                group += comps, image
        n = top["n"]
        require(type(n) is int and n >= 0, f"n is {n!r}, not an int >= 0")
        levels, objects = {}, {}
        for lv in top["levels"]:
            entries, cells = lv["object"], lv["cells"]
            require(type(entries) is list and set(map(type, entries)) <= {int},
                    f"object {entries!r} is not a list of ints")
            require(min(entries, default=1) >= 1, f"object {entries!r} has an entry < 1")
            require(type(cells) is list and set(map(type, cells)) <= {str}
                    and len(set(cells)) == len(cells),
                    f"cells of {entries} are not a list of distinct strings")
            M = objects[tuple(entries)] = theta.object_of(n, entries)
            require(M not in levels, f"level {M} listed twice")
            levels[M] = _label_order(cells, cells)
        B = top["window"]["B"]
        require(type(B) is int and B >= 1, f"window B is {B!r}, not an int >= 1")
        # count the window's levels first, so a huge B or n lists no objects
        size = sum(B ** k for k in range(min(n, len(levels)) + 1))
        window = size <= len(levels) and set(theta.window_objects(n, B))
        require(window and all(M in levels for M in window),
                f"a level of window B={B} is not listed")
        acts, shared, listed = {}, {}, 0
        for ends, group in runs:
            E = [objects.get(end) for end in ends]
            require(None not in E, f"an end of the morphism {ends} is not a listed level")
            listed += len(group) // 2 if E[0] in window and E[1] in window else 0
            source, (_, order, target), done = levels[E[0]][2], levels[E[1]], {}
            order = tuple(order)
            for comps, image in zip(group[::2], group[1::2]):
                f = theta.ThetaMorphism(*E, comps)
                if f in acts:
                    require(False, f"the action of {f} listed twice")
                if (got := done.get(id(image))) is None:    # each distinct map of a run once
                    keys, images = image
                    try:    # a map listing the target's cells in order, onto source cells
                        got = [source[x] for x in images] if keys == order else None
                    except (KeyError, TypeError):
                        pass
                    got = got or _positions(f, images if keys is None else dict(zip(keys, images)),
                                            target, source)
                    got = done[id(image)] = shared.setdefault(tuple(got), got)
                acts[f] = got
        # count the listed actions of the window against its morphisms: only
        # a shortfall lists them, to name the first one missing
        if listed < _window_morphisms(n, B):
            missing = next(f for _, _, mors in Window(B).morphisms(n) for f in mors
                           if f not in acts)
            require(False, f"the action of {missing} is not listed")
    except (KeyError, TypeError, AttributeError, theta.ThetaError) as exc:
        raise PresheafError(f"malformed dump: {type(exc).__name__}: {exc}") from exc
    return TabledPrecat(n, WindowTable(levels, acts, f"{name} of window B={B}"), name)
