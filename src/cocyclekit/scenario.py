"""Scenario files: JSON descriptions of covers, actions, atlases and checks.

Complex numbers are [re, im] pairs of finite numbers; rationals are decimal
strings like "3/10"; every cross-reference (map names, cover indices,
generator names) is resolved at load time with errors naming the offending
symbol. Cover clouds and check point lists are (N, n) complex arrays from
load on.
"""

import contextlib
import itertools
import json
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import holomap
from .cechgroup import (Atlas, CoverSpec, GroupActionSpec, letter_pairs, tau_invariant,
                        trivial_action)
from .errors import DslSyntaxError, ScenarioError, ValidationError
from .expr import CRat
from .invariants import todd_invariant

# hashlib maps OpenSSL (3.5 MB of RSS) for one digest per load; the interpreter's
# builtin module gives the same SHA-256: _sha2 from 3.12, _sha256 before
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

KNOWN_CHECKS = ("affine-vanishing", "tau-closedness", "witness", "telescoping",
                "dk-validate", "theta-composition", "bm-dbar", "bm-reproducing")

MIN_SAMPLE_WARN = 8

# largest round-trip error, over the declared clouds, of a generator against its
# inverse and of a chart against its inverse
GENERATOR_ROUND_TRIP_TOL = 1e-10
CHART_ROUND_TRIP_TOL = 1e-9


def _rational(s, location):
    if not isinstance(s, str):
        raise ScenarioError("rational must be a string like \"3/10\", got %r" % (s,), location)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError("bad rational %r" % (s,), location) from None


def _cloud(points, n, location):
    """A JSON list of points as an (N, n) complex array, checked as one array: shape
    (N, n, 2), real entries (_is_real_type), all finite. Only a refused list is walked
    point by point, to name the bad entry."""
    A = np.array(_require_list(points, location), dtype=object)
    if A.shape == (len(points), n, 2) and all(map(_is_real_type, set(map(type, A.flat)))):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            X = A.astype(float)
            if np.isfinite(X).all():
                return X.view(complex)[..., 0]
    for p in points:
        _point(p, n, location)
    if points:
        raise ScenarioError("points must be lists of %d [re, im] pairs of finite numbers" % n,
                            location)
    return np.zeros((0, n), dtype=complex)


def _point(obj, n, location):
    """Refuse a point that is not n [re, im] pairs of finite numbers. Points and pairs
    may be lists, tuples or numpy arrays, the containers np.array reads in _cloud."""
    if not isinstance(obj, _SEQUENCES) or len(obj) != n:
        raise ScenarioError("point must have %d [re, im] coordinates" % n, location)
    for c in obj:
        if not (isinstance(c, _SEQUENCES) and len(c) == 2 and all(map(_is_finite, c))):
            raise ScenarioError("coordinate must be an [re, im] pair of finite numbers, "
                                "got %.60r" % (c,), location)


class Scenario:
    """Validated scenario: named maps, cover, action, atlases and a check list.

    The tau cochains the checks need are built on first request and kept here,
    one per (atlas, arity, transitions), so checks that read the same tau, as the
    face-sum checks of one chart simplex do (_simplex), share its base values
    and sampled arrays; a corrupt control's tau reads the faces its override
    leaves alone from the clean one (tau). A reloaded scenario starts with none.
    """

    def __init__(self, data, source_bytes=b""):
        self.data = data
        self.hash = sha256(source_bytes).hexdigest()
        _require_object(data, "scenario")
        if "dimension" not in data:
            raise ScenarioError("missing 'dimension'", "scenario")
        _validate_fields(data, _SCENARIO_FIELDS, "dimension")
        self.n = data["dimension"]
        self.constants = self._load_constants(data.get("constants", {}))
        self.maps = self._load_maps(data.get("maps", {}))
        self.cover = self._load_cover(data.get("cover"))
        self.action = self._load_action(data.get("action"))
        self.atlas = self._load_atlas(data.get("atlas"), "atlas")
        self.atlas_b = self._load_atlas(data.get("atlas_b"), "atlas_b")
        self._simplices = {}  # (chart pairs, source point bytes, arity) -> atlas
        self._spaces = {}     # a chart simplex's atlas -> its (cover, action)
        self.checks = self._load_checks(data.get("checks", []))
        self.output = data.get("output")
        if self.output is not None and not isinstance(self.output, str):
            raise ScenarioError("must be a report path string, got %r" % (self.output,), "output")
        self._tau = {}

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            data = json.loads(raw)
        except ValueError as err:  # bad JSON, non-UTF-8 bytes or an integer past int()'s limit
            raise ScenarioError("not valid JSON: %s" % err, str(path)) from None
        return cls(data, raw)

    def tau(self, atlas, arity, transitions=()):
        """tau of `atlas` (self.atlas, self.atlas_b or a chart simplex's) under
        todd_invariant(arity) and the ((a, b), maps) items `transitions`, once. A
        tau with transitions takes the value of every cell whose paths read none
        of them from the tau without, of the same atlas and arity."""
        key = (atlas, arity, transitions)
        tau = self._tau.get(key)
        if tau is None:
            cover, action = self._spaces.get(atlas, (self.cover, self.action))
            if cover is None or atlas is None:
                raise ScenarioError("scenario has no cover/atlas sections")
            base = self.tau(atlas, arity) if transitions else None
            tau = self._tau[key] = tau_invariant(cover, action, atlas, todd_invariant(arity),
                                                 dict(transitions), base)
        return tau

    def _load_constants(self, section):
        _require_object(section, "constants")
        out = {}
        for name, spec in section.items():
            loc = "constants/%s" % name
            if not isinstance(spec, dict) or "re" not in spec:
                raise ScenarioError("constant needs {re, im} rational strings", loc)
            out[name] = CRat(_rational(spec["re"], loc), _rational(spec.get("im", "0"), loc))
        return out

    def _load_maps(self, section):
        _require_object(section, "maps")
        out = {}
        for name, spec in section.items():
            loc = "maps/%s" % name
            if not isinstance(spec, dict) or not isinstance(spec.get("components"), str):
                raise ScenarioError("map needs a 'components' string", loc)
            try:
                out[name] = holomap.parse_map(spec["components"], self.n,
                                              constants=self.constants, name=name)
            except DslSyntaxError as err:
                raise ScenarioError("syntax error in components: %s" % err, loc) from None
            except ValidationError as err:
                raise ScenarioError(str(err), loc) from None
        return out

    def map_named(self, name, location):
        if not isinstance(name, str):
            raise ScenarioError("map name must be a string, got %r" % (name,), location)
        if name not in self.maps:
            raise ScenarioError("undefined map %r" % name, location)
        return self.maps[name]

    def _load_cover(self, section):
        if section is None:
            return None
        loc = "cover"
        _require_object(section, loc)
        indices = _index_list(section.get("indices"), "cover/indices")
        repeated = [i for k, i in enumerate(indices) if i in indices[:k]]
        if repeated:
            raise ScenarioError("repeated cover index %r" % repeated[0], "cover/indices")
        clouds = {}
        for k, entry in enumerate(_require_list(section.get("clouds", []), "cover/clouds")):
            cloc = "cover/clouds[%d]" % k
            _require_object(entry, cloc)
            on = _index_list(entry.get("on"), cloc + "/on")
            for i in on:
                if i not in indices:
                    raise ScenarioError("cloud over unknown index %r" % i, cloc)
            key, P = frozenset(on), _cloud(entry.get("points", []), self.n, cloc)
            clouds[key] = np.concatenate([clouds[key], P]) if key in clouds else P
        return _thin_warned(CoverSpec(indices, clouds, self.n))

    def _load_action(self, section):
        if self.cover is None:
            return None
        if section is not None:
            _require_object(section, "action")
        if section is None or not _require_list(section.get("generators", []),
                                                "action/generators"):
            if section and section.get("words"):
                raise ScenarioError("words need generators", "action/words")
            return trivial_action(self.cover.indices, self.n)
        loc = "action"
        generators = {}
        index_action = {}
        for i, gen in enumerate(_require_list(section["generators"], "action/generators")):
            _require_object(gen, "action/generators[%d]" % i)
            name = gen.get("name")
            if not name or not isinstance(name, str):
                raise ScenarioError("generator needs a name string", "action/generators[%d]" % i)
            if name in generators:
                raise ScenarioError("repeated generator name %r" % name,
                                    "action/generators[%d]" % i)
            gloc = "action/%s" % name
            fwd = self.map_named(gen.get("map", ""), gloc)
            inv = self.map_named(gen.get("inverse", ""), gloc)
            table = gen.get("index_action", {})
            _require_object(table, gloc + "/index_action")
            if not all(isinstance(v, str) for v in table.values()):
                raise ScenarioError("index images must be index strings", gloc + "/index_action")
            generators[name] = (fwd, inv)
            index_action[name] = table
        words = []
        for i, w in enumerate(_require_list(section.get("words", []), "action/words")):
            wloc = "action/words[%d]" % i
            word = parse_word(_require_list(w, wloc), generators, wloc)
            if word in words:
                raise ScenarioError("word %s reduces to action/words[%d]"
                                    % (json.dumps(w), words.index(word)), wloc)
            words.append(word)
        try:
            action = GroupActionSpec(generators, index_action, self.cover.indices,
                                     words=words)
        except ValidationError as err:
            raise ScenarioError(str(err), loc) from None
        _require_round_trip(action.round_trip(self.cover), GENERATOR_ROUND_TRIP_TOL,
                            "generator/inverse", "action")
        return action

    def _load_atlas(self, section, key):
        if section is None or self.cover is None:
            return None
        _require_object(section, key)
        charts = {}
        for index in self.cover.indices:
            if index not in section:
                raise ScenarioError("missing chart for index %r" % index, key)
            charts[index] = self._chart_pair(section[index], "%s/%s" % (key, index))
        atlas = Atlas(charts)
        _require_round_trip(atlas.round_trip(self.cover), CHART_ROUND_TRIP_TOL,
                            "chart/inverse", key)
        return atlas

    def _chart_pair(self, entry, location):
        """(chart, inverse) of an atlas entry or a chart-simplex chart: two map names."""
        _require_object(entry, location)
        return (self.map_named(entry.get("chart", ""), location),
                self.map_named(entry.get("inverse", ""), location))

    def _load_checks(self, section):
        checks = []
        seen = set()
        for k, entry in enumerate(_require_list(section, "checks")):
            loc = "checks[%d]" % k
            _require_object(entry, loc)
            ctype = entry.get("type")
            if ctype not in KNOWN_CHECKS:
                raise ScenarioError("unknown check type %r" % (ctype,), loc)
            name = entry.get("name", "%s-%d" % (ctype, k))
            if not isinstance(name, str):
                raise ScenarioError("check name must be a string, got %r" % (name,), loc)
            if name in seen:
                raise ScenarioError("duplicate check name %r" % name, loc)
            seen.add(name)
            validate_check_fields(entry, loc)
            tol = entry.get("tolerance", 1e-7)
            self._validate_check_refs(ctype, entry, loc)
            checks.append(dict(entry, name=name, tolerance=tol,
                               **self._parse_check_points(entry, loc)))
            if ctype in ("telescoping", "dk-validate"):
                checks[-1]["arity"] = self._simplex_arity(ctype, entry, loc)
                checks[-1]["simplex"] = self._simplex(checks[-1], loc)
        return checks

    def _simplex_arity(self, ctype, entry, loc):
        """The arity of a telescoping/dk-validate entry, refused unless the simplex has
        an (arity+1)-cell, where the labels' face sums are checked.

        The default is level - 1 for telescoping and min(level - 1, n) for
        dk-validate, the level being the chart count less one. A telescoping
        simplex is exactly one level above its arity; a dk-validate simplex at
        least one.
        """
        charts = len(entry.get("charts", []))
        default = charts - 2 if ctype == "telescoping" else min(charts - 2, self.n)
        arity = entry.get("arity", default)
        if not 1 <= arity <= self.n:
            raise ScenarioError("arity %d%s is outside 1..%d, the dimension"
                                % (arity, "" if "arity" in entry else
                                   " (the default for %d charts)" % charts, self.n), loc)
        exact = ctype == "telescoping"
        if charts < arity + 2 or (exact and charts > arity + 2):
            raise ScenarioError("%d charts leave no (arity+1)-cell at arity %d: %s needs %s %d"
                                % (charts, arity, ctype, "exactly" if exact else "at least",
                                   arity + 2), loc)
        return arity

    def _parse_check_points(self, entry, loc):
        """The point lists of a check entry as (N, n) complex arrays."""
        return {key: _cloud(entry[key], self.n, loc)
                for key in ("points", "source_points") if key in entry}

    def _validate_check_refs(self, ctype, entry, loc):
        if ctype in ("affine-vanishing", "tau-closedness"):
            if self.cover is None or self.atlas is None:
                raise ScenarioError("%s needs cover and atlas sections" % ctype, loc)
        if ctype == "witness":
            if self.atlas is None or self.atlas_b is None:
                raise ScenarioError("witness needs atlas and atlas_b", loc)
        if ctype in ("affine-vanishing", "tau-closedness", "witness"):
            # a point of any cloud makes a cell, since a Cech tuple may repeat its index
            if not any(map(len, self.cover.clouds.values())):
                raise ScenarioError("no cover cloud holds a point, so %s has no cell to check"
                                    % ctype, loc)
            # above the dimension every label vanishes, so the check would check nothing
            if entry.get("arity", self.n) > self.n:
                raise ScenarioError("arity %d is outside 1..%d, the dimension"
                                    % (entry["arity"], self.n), loc)
        if ctype in ("telescoping", "dk-validate"):
            charts = _require_list(entry.get("charts", []), loc)
            if not entry.get("source_points"):
                raise ScenarioError("need source_points", loc)
            if "corrupt" in entry:
                corrupt = entry["corrupt"]
                _require_object(corrupt, loc)
                face = corrupt.get("replace")
                if not (isinstance(face, list) and len(face) == 2 and all(map(_is_int, face))
                        and 0 <= face[0] < face[1] < len(charts)):
                    raise ScenarioError("'replace' must be two chart positions p < q < %d, got %r"
                                        % (len(charts), face), loc)
                self.map_named(corrupt.get("with_map", ""), loc)
        if ctype == "theta-composition":
            pairs = _require_list(entry.get("pairs", []), loc)
            if not pairs or not entry.get("points"):
                raise ScenarioError("need at least one map pair and one point", loc)
            for pair in pairs:
                if not (isinstance(pair, list) and len(pair) == 2):
                    raise ScenarioError("a pair must name two maps, got %r" % (pair,), loc)
                for name in pair:
                    self.map_named(name, loc)
        if ctype in ("bm-dbar", "bm-reproducing"):
            validate_bm_fields(entry, loc)
        if ctype == "bm-reproducing" and entry.get("n", 2) != 2:
            raise ScenarioError("'n' must be 2, the spheres of bm-reproducing lie in C^2, "
                                "got %r" % (entry["n"],), loc)

    def _simplex(self, entry, loc):
        """The (atlas, arity, transitions) of a telescoping/dk-validate entry's tau.

        The simplex is a cover whose charts share one cloud: index "p" holds chart
        p and its inverse, so phi[p, q] is chart_p . inverse_q, and the source
        points are the cloud of every (arity+1)-cell. Its face labels are tau's
        (arity, 0) values on increasing tuples. Equal charts, points and arity
        share one atlas, so one tau; the corrupt control overrides phi[p, q].
        """
        P, arity = entry["source_points"], entry["arity"]
        charts = tuple(self._chart_pair(spec, loc) for spec in entry["charts"])
        key = (charts, P.tobytes(), arity)
        if key not in self._simplices:
            indices = [str(p) for p in range(len(charts))]
            clouds = {cell: P for cell in itertools.combinations(indices, arity + 2)}
            atlas = Atlas(dict(zip(indices, charts)))
            self._spaces[atlas] = (_thin_warned(CoverSpec(indices, clouds, self.n)),
                                   trivial_action(indices, self.n))
            self._simplices[key] = atlas
        corrupt = entry.get("corrupt")
        transitions = (((tuple(map(str, corrupt["replace"])), (self.maps[corrupt["with_map"]],)),)
                       if corrupt else ())
        return self._simplices[key], arity, transitions


def _thin_warned(cover):
    """The cover, after a warning naming its clouds with fewer than MIN_SAMPLE_WARN points."""
    thin = [sorted(map(str, key)) for key, pts in cover.clouds.items()
            if len(pts) < MIN_SAMPLE_WARN]
    if thin:
        warnings.warn("clouds with fewer than %d sample points weaken the "
                      "pointwise checks: %s" % (MIN_SAMPLE_WARN, thin))
    return cover


def _require_round_trip(worst, tol, what, section):
    """Refuse a worst (error, name) round trip above tol, naming section/name."""
    error, name = worst
    if not error <= tol:
        raise ScenarioError("%s round trip off by %.3e > %.1e" % (what, error, tol),
                            "%s/%s" % (section, name))


_SEQUENCES = (list, tuple, np.ndarray)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real_type(t):
    """int, float and their subclasses, such as np.float64, are real number types; bool
    is not, and neither is np.bool_, which subclasses neither."""
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _is_finite(v):
    """A real number within the float range: NaN, the infinities and larger ints are not."""
    return _is_real_type(type(v)) and abs(v) <= sys.float_info.max


# (field, test, what the test requires) for the scalar fields of a scenario,
# of every check and of BM checks
_SCENARIO_FIELDS = (
    ("dimension", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
)
_CHECK_FIELDS = (
    ("tolerance", lambda v: _is_finite(v) and v > 0, "a finite positive number"),
    ("arity", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    ("expect", lambda v: v in ("pass", "fail"), "'pass' or 'fail'"),
    ("seed", _is_int, "an integer"),
)
_BM_FIELDS = (
    ("n", lambda v: _is_int(v) and v >= 2, "an integer >= 2"),
    ("probes", lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    ("step", lambda v: _is_finite(v) and v > 0, "a finite positive number"),
    ("order", lambda v: _is_int(v) and v >= 4, "an integer >= 4"),
    ("radii", lambda v: isinstance(v, list) and len(v) > 0
     and all(_is_finite(r) and r > 0 for r in v),
     "a nonempty list of finite positive numbers"),
)


def _validate_fields(entry, fields, location):
    """The ranges docs/scenario.schema.json gives the fields present in `entry`."""
    for key, ok, what in fields:
        if key in entry and not ok(entry[key]):
            raise ScenarioError("%r must be %s, got %r" % (key, what, entry[key]), location)


def _json_type(value):
    """The JSON name of the type of a parsed JSON value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _require_object(value, location):
    if not isinstance(value, dict):
        raise ScenarioError("must be an object, got %s" % _json_type(value), location)


def _require_list(value, location):
    if not isinstance(value, list):
        raise ScenarioError("must be an array, got %s" % _json_type(value), location)
    return value


def _index_list(value, location):
    """A nonempty list of cover index strings."""
    if not (_require_list(value, location) and all(isinstance(i, str) for i in value)):
        raise ScenarioError("must be a nonempty list of index strings, got %r" % (value,),
                            location)
    return value


def validate_check_fields(entry, location):
    """The ranges docs/scenario.schema.json gives the fields every check entry shares."""
    _validate_fields(entry, _CHECK_FIELDS, location)


def validate_bm_fields(entry, location):
    """The ranges docs/scenario.schema.json gives the fields of a BM check entry."""
    _validate_fields(entry, _BM_FIELDS, location)
    n = entry.get("n", 2)
    z = entry.get("z", [0.0] * n)
    if not (isinstance(z, list) and len(z) == n and all(map(_is_finite, z))):
        raise ScenarioError("'z' must list n = %d finite real numbers, got %r" % (n, z),
                            location)


def parse_word(tokens, generators, location):
    """["h", "h^-1", ...] -> the reduced tuple of its (generator name, +1 or -1) letters."""
    letters = []
    for tok in tokens:
        if not isinstance(tok, str):
            raise ScenarioError("word letter must be a string, got %r" % (tok,), location)
        if tok.endswith("^-1"):
            name, sgn = tok[:-3], -1
        else:
            name, sgn = tok, 1
        if name not in generators:
            raise ScenarioError("word uses unknown generator %r" % name, location)
        letters.append((name, sgn))
    return holomap.reduced(letters, letter_pairs(generators))
