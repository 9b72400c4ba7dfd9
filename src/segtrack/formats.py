"""Annotation dataset I/O.

Parses labelme documents and zones files, converts labelme to COCO
datasets, splits train/validation sets, reads and writes COCO JSON and
JSON-Lines prediction streams, and samples frames for labeling.  Every
reader validates through the same field readers: ``_document`` decodes
the JSON, ``_records`` walks a record list, and ``_field`` applies one
typed converter per field, so a bad value raises a ``SegtrackError``
that names its record (``shape 2``, ``line 7``, ``zone 0``).
Segmentations are accepted in all three COCO forms wherever one is read:
polygon list-of-rings, uncompressed RLE ``{"size": [h, w], "counts":
[..]}``, and compressed RLE with a counts string.  One ring reads as a
``Polygon`` and several as a ``MultiPolygon``; each is written back as rings.
``read_coco`` and ``parse_predictions`` check every field first and then
decode the file's counts strings in batches (``geometry.rle_decode_many``).
``write_coco`` and ``write_predictions`` give the bytes of ``json.dumps``
from fixed record templates, with every counts string of the file encoded
in one batch (``geometry.rle_encode_many``).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Sequence

from . import geometry
from .errors import (
    ConflictError,
    IntegrityError,
    OutOfRangeError,
    OversizedPolygonError,
    ParseError,
    SchemaError,
    SegtrackError,
    brief_list,
)
from .geometry import BoundingBox, MultiPolygon, Point, Polygon, RleMask, Segmentation
from .tracking import DetectionRecord, Track, TrackState

@dataclass(frozen=True)
class Shape:
    label: str
    points: tuple[Point, ...]
    shape_type: str = "polygon"
    group_id: int | None = None


@dataclass(frozen=True)
class LabelmeDocument:
    image_path: str
    image_height: int
    image_width: int
    shapes: tuple[Shape, ...]


@dataclass
class CocoImage:
    id: int
    file_name: str
    height: int
    width: int
    frame_index: int | None = None


@dataclass
class CocoAnnotation:
    id: int
    image_id: int
    category_id: int
    segmentation: Segmentation
    bbox: BoundingBox
    area: float
    iscrowd: int = 0


@dataclass
class CocoCategory:
    id: int
    name: str


@dataclass
class CocoDataset:
    images: list[CocoImage] = field(default_factory=list)
    annotations: list[CocoAnnotation] = field(default_factory=list)
    categories: list[CocoCategory] = field(default_factory=list)


@dataclass
class SplitResult:
    train: CocoDataset
    val: CocoDataset
    seed: int
    ratio: float


# ---------------------------------------------------------------------------
# shared input readers


def _document(data: bytes | str, kind: type = dict):
    """One JSON document of top-level type ``kind``: bad JSON raises ParseError, another type SchemaError."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # also ints past the digit limit, and deep nesting
        raise ParseError(f"malformed JSON: {e}") from e
    if not isinstance(doc, kind):
        raise SchemaError(f"top-level value must be {'an object' if kind is dict else 'a list'}")
    return doc


def _records(records, section: str, kind: str):
    """``(where, raw)`` for each record of the list ``records`` (named ``section``); records must be objects."""
    if not isinstance(records, list):
        raise SchemaError(f"{section} must be a list")
    for i, raw in enumerate(records):
        where = f"{kind} {i}"
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: record must be an object")
        yield where, raw


_REQUIRED = object()


def _field(raw: dict, key: str, convert, where: str, default=_REQUIRED):
    """``convert(raw[key])``, or ``default`` for an absent optional field.

    A missing required field or a value ``convert`` rejects raises a
    :class:`SchemaError` naming the record ``where``.
    """
    if key not in raw:
        if default is _REQUIRED:
            raise SchemaError(f"{where}: missing field {key!r}")
        return default
    try:
        return convert(raw[key])
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"{where}: invalid {key}: {e}") from None
    except SegtrackError as e:
        raise type(e)(f"{where}: {e}") from e


def _int(value) -> int:
    """A JSON number with an integral value; booleans and strings are not numbers."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {json.dumps(value)}")
    return value


def _optional_int(value) -> int | None:
    return None if value is None else _int(value)


def _int_from(low: int):
    """The reader of JSON integers >= ``low``."""

    def convert(value) -> int:
        if (n := _int(value)) < low:
            raise ValueError(f"expected an integer >= {low}, got {json.dumps(value)}")
        return n

    return convert


_index = _int_from(0)  # frame numbers
_size = _int_from(1)  # image heights and widths


def _number(value) -> float:
    """A JSON number as a float; booleans and strings are not numbers."""
    if type(value) is bool or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {json.dumps(value)}")
    return float(value)


_NUMBER_TYPES = frozenset((int, float))  # the Python types of JSON numbers; bool is a type of its own


def _finite(value) -> float:
    """A finite JSON number as a float; it calls no other reader, since it runs once per coordinate."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {json.dumps(value)}")
    return float(value)


def _area(value) -> float:
    """A finite, nonnegative JSON number."""
    area = _number(value)
    if not (math.isfinite(area) and area >= 0.0):
        raise ValueError(f"expected a finite number >= 0, got {json.dumps(value)}")
    return area


def _score(value) -> float:
    """A JSON number in [0, 1]; outside it raises :class:`OutOfRangeError`."""
    score = _number(value)
    if not 0.0 <= score <= 1.0:
        raise OutOfRangeError(f"score {json.dumps(value)} outside [0, 1]")
    return score


def _str(value) -> str:
    """A JSON string; numbers, booleans and null are not names."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {json.dumps(value)}")
    return value


def _name(value) -> str:
    """A non-empty JSON string, such as a label."""
    if not _str(value):
        raise ValueError('expected a non-empty string, got ""')
    return value


def _shape_type(value) -> str:
    if _str(value) not in ("polygon", "point"):
        raise ValueError(f'expected "polygon" or "point", got {json.dumps(value)}')
    return value


def _bbox(value) -> BoundingBox:
    """``[x, y, w, h]``: four finite JSON numbers."""
    if type(value) is not list or len(value) != 4:
        raise TypeError(f"expected [x, y, w, h], got {json.dumps(value)}")
    return BoundingBox(*map(_finite, value))


def _points(value) -> tuple[Point, ...]:
    """A JSON list of ``[x, y]`` points of finite numbers."""
    if type(value) is not list or not all(type(p) is list and len(p) == 2 for p in value):
        raise TypeError(f"expected a list of [x, y] points, got {json.dumps(value)}")
    return tuple(Point(_finite(x), _finite(y)) for x, y in value)


# ---------------------------------------------------------------------------
# hand-drawn inputs: labelme documents and zones files


def parse_labelme(data: bytes | str) -> LabelmeDocument:
    """Parse one labelme JSON document; unknown top-level fields are ignored."""
    doc = _document(data)
    shapes = []
    for where, raw in _records(doc.get("shapes", []), "shapes", "shape"):
        label = _field(raw, "label", _name, where)
        shape_type = _field(raw, "shape_type", _shape_type, where, "polygon")
        points = _field(raw, "points", _points, where)
        if len(points) < 3 if shape_type == "polygon" else len(points) != 1:
            raise SchemaError(f"{where}: a {shape_type} shape cannot have {len(points)} points")
        group_id = _field(raw, "group_id", _optional_int, where, None)
        shapes.append(Shape(label=label, points=points, shape_type=shape_type, group_id=group_id))
    return LabelmeDocument(
        image_path=_field(doc, "imagePath", _name, "top level"),
        image_height=_field(doc, "imageHeight", _size, "top level"),
        image_width=_field(doc, "imageWidth", _size, "top level"),
        shapes=tuple(shapes),
    )


def parse_zones(data: bytes | str) -> list[tuple[str, Polygon]]:
    """Zones file: a JSON list of ``{"name": ..., "points": [[x, y], ...]}``, as ``(name, region)`` pairs."""
    return [
        (_field(raw, "name", _name, where), _field(raw, "points", lambda v: Polygon(_points(v)), where))
        for where, raw in _records(_document(data, list), "zones", "zone")
    ]


def keypoint_to_region(pt: Point | Sequence[float], radius: float) -> Polygon:
    """Small circular stand-in mask for a keypoint: a regular 16-gon.

    The first vertex sits at angle 0 (due +x from the center) and the
    circumradius equals ``radius``.
    """
    if radius <= 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    cx, cy = float(pt[0]), float(pt[1])
    pts = [
        Point(cx + radius * math.cos(2 * math.pi * k / 16), cy + radius * math.sin(2 * math.pi * k / 16))
        for k in range(16)
    ]
    return Polygon(tuple(pts))


def labelme_to_coco(docs: Sequence[LabelmeDocument], keypoint_radius: float = 5.0) -> CocoDataset:
    """Convert labelme documents into one COCO dataset.

    Category ids are assigned 1..C over the sorted unique labels.  Point
    shapes become 16-gon regions.  Shapes sharing (label, group_id) with
    a non-null group_id within one document merge into a single
    multi-ring annotation.  Images keep their input position as
    ``frame_index``.  A region whose area or bbox overflows to a
    non-finite value raises :class:`OutOfRangeError`, and a group whose
    rings share a pixel center in the image raises :class:`ConflictError`
    (its area, the sum of the ring areas, would count that pixel twice).
    A group whose rings could fill more of the image than that check may
    (:func:`geometry.rings_overlap`) raises :class:`OversizedPolygonError`.
    Each names the document and the region's first shape.
    """
    if not docs:
        raise ValueError("need at least one document")
    seen_names: set[str] = set()
    for doc in docs:
        if doc.image_path in seen_names:
            raise ConflictError(f"duplicate file name {doc.image_path!r}")
        seen_names.add(doc.image_path)

    labels = sorted({s.label for doc in docs for s in doc.shapes})
    cat_ids = {name: i + 1 for i, name in enumerate(labels)}
    ds = CocoDataset(categories=[CocoCategory(id=i, name=n) for n, i in sorted(cat_ids.items(), key=lambda kv: kv[1])])

    ann_id = 1
    for doc_idx, doc in enumerate(docs):
        image_id = doc_idx + 1
        ds.images.append(
            CocoImage(
                id=image_id,
                file_name=doc.image_path,
                height=doc.image_height,
                width=doc.image_width,
                frame_index=doc_idx,
            )
        )
        groups: dict[object, tuple[int, list[Polygon]]] = {}  # the first shape's index and the rings
        for shape_idx, shape in enumerate(doc.shapes):
            if shape.shape_type == "point":
                ring = keypoint_to_region(shape.points[0], keypoint_radius)
            else:
                ring = Polygon(shape.points)
            key = (shape.label, shape.group_id) if shape.group_id is not None else (shape.label, None, shape_idx)
            groups.setdefault(key, (shape_idx, []))[1].append(ring)
        for key, (first, rings) in groups.items():
            seg: Segmentation = rings[0] if len(rings) == 1 else MultiPolygon(rings)
            if not all(map(math.isfinite, (seg.area, *seg.bbox))):  # finite coordinates can overflow both
                raise OutOfRangeError(
                    f"document {doc.image_path!r}, shape {first}: coordinates too large:"
                    f" area {json.dumps(seg.area)}, bbox {json.dumps(list(seg.bbox))}"
                )
            try:
                overlap = len(rings) > 1 and geometry.rings_overlap(rings, doc.image_height, doc.image_width)
            except OversizedPolygonError as e:
                raise OversizedPolygonError(f"document {doc.image_path!r}, shape {first}: group {key[1]}: {e}") from e
            if overlap:
                raise ConflictError(
                    f"document {doc.image_path!r}, shape {first}: the rings of group {key[1]} share a pixel"
                )
            ds.annotations.append(
                CocoAnnotation(
                    id=ann_id,
                    image_id=image_id,
                    category_id=cat_ids[key[0]],
                    segmentation=seg,
                    bbox=seg.bbox,
                    area=seg.area,
                    iscrowd=0,
                )
            )
            ann_id += 1
    return ds


# ---------------------------------------------------------------------------
# splitting and sampling


def split_dataset(ds: CocoDataset, ratio: float = 0.8, seed: int = 0) -> SplitResult:
    """Seeded train/validation split of a COCO dataset.

    Images are shuffled deterministically and the first
    ``min(ceil(ratio * N), N - 1)`` go to the training part, so neither
    part is empty; annotations follow their image, ids are re-densified
    per part, and both parts keep the full category table.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be inside (0, 1), got {ratio}")
    n = len(ds.images)
    if n < 2:
        raise ValueError(f"need at least 2 images to split, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_train = min(math.ceil(ratio * n), n - 1)  # ceil(0.8 * n) is n for n < 5
    train_pos = sorted(order[:n_train])
    val_pos = sorted(order[n_train:])

    def build(positions: list[int]) -> CocoDataset:
        part = CocoDataset(categories=[CocoCategory(c.id, c.name) for c in ds.categories])
        id_map = {}
        for new_id, pos in enumerate(positions, start=1):
            img = ds.images[pos]
            id_map[img.id] = new_id
            part.images.append(
                CocoImage(new_id, img.file_name, img.height, img.width, img.frame_index)
            )
        ann_id = 1
        for ann in ds.annotations:
            if ann.image_id in id_map:
                part.annotations.append(
                    CocoAnnotation(
                        id=ann_id,
                        image_id=id_map[ann.image_id],
                        category_id=ann.category_id,
                        segmentation=ann.segmentation,
                        bbox=ann.bbox,
                        area=ann.area,
                        iscrowd=ann.iscrowd,
                    )
                )
                ann_id += 1
        return part

    return SplitResult(train=build(train_pos), val=build(val_pos), seed=seed, ratio=ratio)


def sample_frames(n_total: int, k: int, strategy: str = "random", seed: int = 0) -> list[int]:
    """Pick k distinct frame indices from [0, n_total), ascending.

    ``uniform`` strides evenly; ``random`` samples without replacement
    from a seeded generator.
    """
    if n_total <= 0:
        raise ValueError(f"n_total must be > 0, got {n_total}")
    if not 0 < k <= n_total:
        raise ValueError(f"k must be in (0, {n_total}], got {k}")
    if strategy == "uniform":
        return [i * n_total // k for i in range(k)]
    if strategy == "random":
        return sorted(random.Random(seed).sample(range(n_total), k))
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# COCO JSON interchange


def encode_segmentation(seg: Segmentation):
    """Canonical JSON form: rings as flat coordinate lists, masks as compressed RLE."""
    if isinstance(seg, RleMask):
        return {"size": [seg.height, seg.width], "counts": geometry.rle_encode_string(seg)}
    return [[coord for p in ring.points for coord in p] for ring in seg.rings]


def decode_segmentation(form) -> Segmentation:
    """Accept any of the three COCO segmentation forms."""
    seg = _segmentation(form)
    if type(seg) is tuple:
        counts, (h, w) = seg
        return geometry.rle_decode_string(counts, h, w)
    return seg


def _segmentation(form) -> Segmentation | tuple[str, tuple[int, int]]:
    """A COCO segmentation form, checked; a counts string is returned undecoded, as ``(counts, (h, w))``."""
    if isinstance(form, list):
        if not form:
            raise SchemaError("empty polygon segmentation")
        rings = []
        for ring in form:
            if not isinstance(ring, list) or len(ring) < 6 or len(ring) % 2 != 0:
                raise SchemaError(f"polygon ring must hold >=3 coordinate pairs, got {ring!r}")
            if not set(map(type, ring)) <= _NUMBER_TYPES:  # booleans and strings are not coordinates
                bad = next(v for v in ring if type(v) not in _NUMBER_TYPES)
                raise TypeError(f"polygon coordinates must be numbers, got {json.dumps(bad)}")
            rings.append(Polygon(tuple(zip(ring[0::2], ring[1::2]))))
        return rings[0] if len(rings) == 1 else MultiPolygon(rings)
    if isinstance(form, dict):
        size = form.get("size")
        counts = form.get("counts")
        if not (isinstance(size, list) and len(size) == 2):
            raise SchemaError(f"RLE size must be [height, width], got {size!r}")
        h, w = _int(size[0]), _int(size[1])
        if isinstance(counts, str):
            return counts, (h, w)
        if isinstance(counts, list):
            return RleMask(h, w, tuple(_int(c) for c in counts))
        raise SchemaError(f"RLE counts must be a list or string, got {type(counts).__name__}")
    raise SchemaError(f"unsupported segmentation form: {type(form).__name__}")


def _decode_masks(pending: list[tuple[str, tuple[str, tuple[int, int]]]]) -> list[RleMask]:
    """The masks of ``(where, (counts, (h, w)))`` counts strings, decoded in batches.

    A corrupt string raises the error :func:`geometry.rle_decode_string`
    would, naming its record ``where``.
    """
    decoded = geometry.rle_decode_many([form[0] for _, form in pending], [form[1] for _, form in pending])
    masks = []
    for where, _ in pending:
        try:
            masks.append(next(decoded))
        except SegtrackError as e:
            raise type(e)(f"{where}: {e}") from e
    return masks


def _json_scalar(value) -> str:
    """One JSON leaf exactly as ``json.dumps`` writes it.

    Strings go through json's own ``encode_basestring_ascii`` (a counts
    string may hold a backslash); ints and floats through ``int.__repr__``
    and ``float.__repr__``, with json's ``NaN`` and ``Infinity``.
    """
    if type(value) is int:  # ids and sizes, the most common leaf
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _counts_literals(segs: Iterable[Segmentation]) -> Iterator[str]:
    """The counts string of each mask among ``segs`` as a JSON string, all encoded in one batch."""
    masks = [seg for seg in segs if isinstance(seg, RleMask)]
    return map(encode_basestring_ascii, geometry.rle_encode_many(masks))


def _json_leaves(leaves: Sequence, sep: str) -> str:
    """The leaves as :func:`_json_scalar` writes them, joined by ``sep``.

    A list of finite floats, such as a ring or a box, is written by
    ``float.__repr__`` at C speed; any other leaf fails that map with a
    TypeError, and a non-finite one writes ``nan`` or ``inf``, the only
    float reprs with an ``n``.  Either sends the list through
    :func:`_json_scalar` one leaf at a time.
    """
    try:
        text = sep.join(map(float.__repr__, leaves))
    except TypeError:
        text = "n"
    return sep.join(map(_json_scalar, leaves)) if "n" in text else text


def _indented_list(leaves: Sequence, indent: str) -> str:
    """A list of scalars in the ``indent=2`` layout, opened at nesting ``indent``: one leaf per line."""
    if not leaves:
        return "[]"
    inner = indent + "  "
    return f"[\n{inner}" + _json_leaves(leaves, f",\n{inner}") + f"\n{indent}]"


def _compact_list(leaves: Sequence) -> str:
    """A list of scalars as ``json.dumps`` writes it with its default separators."""
    return "[" + _json_leaves(leaves, ", ") + "]"


def _indented_section(records: list[str]) -> str:
    """A top-level list of rendered records in the ``indent=2`` layout."""
    return "[\n" + ",\n".join(records) + "\n  ]" if records else "[]"


def _coco_image(img: CocoImage) -> str:
    frame = "" if img.frame_index is None else f',\n      "frame_index": {_json_scalar(img.frame_index)}'
    return (
        f'    {{\n      "id": {_json_scalar(img.id)},\n      "file_name": {_json_scalar(img.file_name)},\n'
        f'      "height": {_json_scalar(img.height)},\n      "width": {_json_scalar(img.width)}{frame}\n    }}'
    )


def _coco_annotation(ann: CocoAnnotation, counts: Iterator[str]) -> str:
    seg = ann.segmentation
    if isinstance(seg, RleMask):
        size = _indented_list((seg.height, seg.width), "        ")
        form = f'{{\n        "size": {size},\n        "counts": {next(counts)}\n      }}'
    else:
        rings = [_indented_list([c for p in ring.points for c in p], "        ") for ring in seg.rings]
        form = "[\n        " + ",\n        ".join(rings) + "\n      ]"
    return (
        f'    {{\n      "id": {_json_scalar(ann.id)},\n      "image_id": {_json_scalar(ann.image_id)},\n'
        f'      "category_id": {_json_scalar(ann.category_id)},\n      "segmentation": {form},\n'
        f'      "bbox": {_indented_list(ann.bbox, "      ")},\n      "area": {_json_scalar(ann.area)},\n'
        f'      "iscrowd": {_json_scalar(ann.iscrowd)}\n    }}'
    )


def write_coco(ds: CocoDataset) -> bytes:
    """Serialize with a fixed key order so identical datasets yield identical bytes.

    The bytes are those of ``json.dumps(payload, indent=2) + "\\n"`` over
    the records' fields in declaration order (``frame_index`` only when
    set, segmentations as :func:`encode_segmentation` gives them), but each
    record is rendered from a fixed template and all counts strings are
    encoded in one batch.
    """
    counts = _counts_literals(ann.segmentation for ann in ds.annotations)
    categories = [
        f'    {{\n      "id": {_json_scalar(c.id)},\n      "name": {_json_scalar(c.name)}\n    }}' for c in ds.categories
    ]
    text = (
        f'{{\n  "images": {_indented_section([_coco_image(img) for img in ds.images])},\n'
        f'  "annotations": {_indented_section([_coco_annotation(ann, counts) for ann in ds.annotations])},\n'
        f'  "categories": {_indented_section(categories)}\n}}\n'
    )
    return text.encode("ascii")


def read_coco(data: bytes | str) -> CocoDataset:
    """Parse and referentially validate a COCO dataset.

    A malformed record raises a :class:`SchemaError` that names it by
    section and position, e.g. ``annotation 3: missing field 'id'``.
    Every field of every record is checked before the counts strings
    are decoded, so a corrupt string is reported only in a file whose
    fields are all well-formed.
    """
    doc = _document(data)
    ds = CocoDataset()
    for where, raw in _records(doc.get("categories", []), "categories", "category"):
        ds.categories.append(CocoCategory(id=_field(raw, "id", _int, where), name=_field(raw, "name", _str, where)))
    for where, raw in _records(doc.get("images", []), "images", "image"):
        ds.images.append(
            CocoImage(
                id=_field(raw, "id", _int, where),
                file_name=_field(raw, "file_name", _str, where),
                height=_field(raw, "height", _size, where),
                width=_field(raw, "width", _size, where),
                frame_index=_field(raw, "frame_index", _optional_int, where, None),
            )
        )
    pending = []  # annotations whose counts string is decoded below, with the rest of the file's
    for where, raw in _records(doc.get("annotations", []), "annotations", "annotation"):
        ann = CocoAnnotation(
            id=_field(raw, "id", _int, where),
            image_id=_field(raw, "image_id", _int, where),
            category_id=_field(raw, "category_id", _int, where),
            segmentation=_field(raw, "segmentation", _segmentation, where),
            bbox=_field(raw, "bbox", _bbox, where, BoundingBox(0.0, 0.0, 0.0, 0.0)),
            area=_field(raw, "area", _area, where, 0.0),
            iscrowd=_field(raw, "iscrowd", _int, where, 0),
        )
        if type(ann.segmentation) is tuple:
            pending.append((where, ann))
        ds.annotations.append(ann)
    for (_, ann), mask in zip(pending, _decode_masks([(where, ann.segmentation) for where, ann in pending])):
        ann.segmentation = mask

    problems = []
    for name, items in (("image", ds.images), ("annotation", ds.annotations), ("category", ds.categories)):
        counts = Counter(it.id for it in items)
        dup = sorted(i for i, n in counts.items() if n > 1)
        if dup:
            problems.append(f"duplicate {name} ids {brief_list(dup)}")
    image_ids = {img.id for img in ds.images}
    cat_ids = {c.id for c in ds.categories}
    bad_img = sorted(a.id for a in ds.annotations if a.image_id not in image_ids)
    bad_cat = sorted(a.id for a in ds.annotations if a.category_id not in cat_ids)
    if bad_img:
        problems.append(f"annotations {brief_list(bad_img)} reference missing images")
    if bad_cat:
        problems.append(f"annotations {brief_list(bad_cat)} reference missing categories")
    if problems:
        raise IntegrityError("; ".join(problems))
    image_frame_map(ds)  # raises on a repeated frame_index
    return ds


# ---------------------------------------------------------------------------
# prediction streams (JSON-Lines)

def parse_predictions(stream: bytes | str | Iterable[str]) -> list[DetectionRecord]:
    """Parse a JSON-Lines prediction stream, one record per line.

    Errors carry the 1-based line number; blank lines are skipped.  As
    in :func:`read_coco`, counts strings are decoded after every field
    of every line is checked.
    """
    if isinstance(stream, bytes):
        lines: Iterable[str] = stream.decode("utf-8").splitlines()
    elif isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = stream

    rows = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {lineno}"
        try:
            raw = _document(line)
        except SegtrackError as e:
            raise type(e)(f"{where}: {e}") from e
        rows.append(
            (
                where,
                _field(raw, "frame", _index, where),
                _field(raw, "label", _name, where),
                _field(raw, "score", _score, where),
                _field(raw, "bbox", _bbox, where),
                _field(raw, "segmentation", _segmentation, where),
            )
        )
    masks = iter(_decode_masks([(row[0], row[5]) for row in rows if type(row[5]) is tuple]))
    return [
        DetectionRecord(frame, label, score, next(masks) if type(seg) is tuple else seg, bbox)
        for _, frame, label, score, bbox, seg in rows
    ]


def write_predictions(records: Sequence[DetectionRecord]) -> bytes:
    """One JSON line per record, as ``json.dumps`` writes it with its default separators.

    Each line is rendered from a fixed template, and all counts strings are encoded in one batch.
    """
    counts = _counts_literals(r.segmentation for r in records)
    lines = []
    for r in records:
        seg = r.segmentation
        if isinstance(seg, RleMask):
            form = f'{{"size": {_compact_list((seg.height, seg.width))}, "counts": {next(counts)}}}'
        else:
            form = "[" + ", ".join(_compact_list([c for p in ring.points for c in p]) for ring in seg.rings) + "]"
        lines.append(
            f'{{"frame": {_json_scalar(r.frame)}, "label": {_json_scalar(r.label)}, "score": {_json_scalar(r.score)},'
            f' "bbox": {_compact_list(r.bbox)}, "segmentation": {form}}}\n'
        )
    return "".join(lines).encode("ascii")


# ---------------------------------------------------------------------------
# dataset -> tracks


def image_frame_map(ds: CocoDataset) -> dict[int, CocoImage]:
    """Map frame numbers to images.

    Uses the ``frame_index`` extension when every image carries it,
    otherwise frames follow ascending file name order.
    """
    if all(img.frame_index is not None for img in ds.images):
        mapping = {}
        for img in ds.images:
            if img.frame_index in mapping:
                raise IntegrityError(f"duplicate frame_index {img.frame_index}")
            mapping[img.frame_index] = img
        return mapping
    ordered = sorted(ds.images, key=lambda img: img.file_name)
    return {i: img for i, img in enumerate(ordered)}


def coco_to_tracks(ds: CocoDataset) -> list[Track]:
    """Ground-truth tracks from a COCO dataset: one per category with annotations."""
    frames = image_frame_map(ds)
    frame_of_image = {img.id: f for f, img in frames.items()}
    category_name = {c.id: c.name for c in ds.categories}
    states: dict[str, list[TrackState]] = {}
    for ann in ds.annotations:
        label = category_name[ann.category_id]
        frame = frame_of_image[ann.image_id]
        states.setdefault(label, []).append(
            TrackState(frame=frame, score=1.0, segmentation=ann.segmentation)
        )
    try:
        return [Track(label, states[label]) for label in sorted(states)]
    except ValueError as e:  # two annotations of one category on one image
        raise SchemaError(str(e)) from e
