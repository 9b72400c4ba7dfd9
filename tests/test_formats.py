from __future__ import annotations

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segtrack import geometry
from segtrack.errors import (
    ConflictError,
    CorruptRleError,
    CorruptStringError,
    IntegrityError,
    OutOfRangeError,
    OversizedPolygonError,
    ParseError,
    SchemaError,
)
from segtrack.formats import (
    CocoAnnotation,
    CocoCategory,
    CocoDataset,
    CocoImage,
    LabelmeDocument,
    Shape,
    coco_to_tracks,
    decode_segmentation,
    encode_segmentation,
    image_frame_map,
    keypoint_to_region,
    labelme_to_coco,
    parse_labelme,
    parse_predictions,
    read_coco,
    sample_frames,
    split_dataset,
    write_coco,
    write_predictions,
)
from segtrack.geometry import BoundingBox, MultiPolygon, Point, Polygon, RleMask, polygon_area
from segtrack.tracking import DetectionRecord

from _oracles import reference_write_coco, reference_write_predictions


def labelme_json(name="frame_000.png", shapes=None, **extra):
    doc = {
        "version": "5.2.1",
        "imagePath": name,
        "imageHeight": 100,
        "imageWidth": 120,
        "shapes": shapes if shapes is not None else [],
    }
    doc.update(extra)
    return json.dumps(doc)


def polygon_shape(label, pts, group_id=None):
    return {"label": label, "points": [list(p) for p in pts], "shape_type": "polygon", "group_id": group_id}


SQUARE_PTS = [(10, 10), (20, 10), (20, 20), (10, 20)]


# ---------------------------------------------------------------------------
# labelme parsing


def test_parse_minimal_document():
    text = labelme_json(shapes=[polygon_shape("vole_1", SQUARE_PTS)])
    doc = parse_labelme(text)
    assert doc.image_path == "frame_000.png"
    assert doc.image_height == 100 and doc.image_width == 120
    assert len(doc.shapes) == 1
    shape = doc.shapes[0]
    assert shape.label == "vole_1"
    assert shape.shape_type == "polygon"
    assert shape.group_id is None
    assert shape.points == tuple(Point(float(x), float(y)) for x, y in SQUARE_PTS)


def test_parse_document_without_shapes():
    assert parse_labelme(labelme_json()).shapes == ()


def test_parse_ignores_unknown_fields():
    text = labelme_json(shapes=[], imageData="abc123", flags={"x": True})
    assert parse_labelme(text).image_height == 100


def test_parse_missing_image_width():
    raw = json.loads(labelme_json())
    del raw["imageWidth"]
    with pytest.raises(SchemaError):
        parse_labelme(json.dumps(raw))


def test_parse_malformed_json():
    with pytest.raises(ParseError):
        parse_labelme("{not json")


def test_parse_unsupported_shape_type_named():
    text = labelme_json(shapes=[{"label": "x", "points": [[0, 0], [1, 1]], "shape_type": "circle"}])
    with pytest.raises(SchemaError, match="circle"):
        parse_labelme(text)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda d: d["shapes"].append(7), "shape 0: record must be an object"),
        (lambda d: d["shapes"].append({"label": "a", "points": [[1, "x"]], "shape_type": "point"}),
         'shape 0: invalid points: expected a finite number, got "x"'),
        (lambda d: d["shapes"].append({"label": "a", "points": [[1, math.nan]], "shape_type": "point"}),
         "shape 0: invalid points: expected a finite number, got NaN"),
        (lambda d: d["shapes"].append({"label": "a", "points": [[1, 2, 3]], "shape_type": "point"}),
         "shape 0: invalid points: expected a list of [x, y] points, got [[1, 2, 3]]"),
        (lambda d: d["shapes"].append(polygon_shape("", SQUARE_PTS)),
         'shape 0: invalid label: expected a non-empty string, got ""'),
        (lambda d: d["shapes"].append(polygon_shape("a", SQUARE_PTS, group_id=True)),
         "shape 0: invalid group_id: expected an integer, got true"),
        (lambda d: d.update(imageHeight=True), "top level: invalid imageHeight: expected an integer, got true"),
        (lambda d: d.update(imageHeight=64.5), "top level: invalid imageHeight: expected an integer, got 64.5"),
        (lambda d: d.update(imageWidth=0), "top level: invalid imageWidth: expected an integer >= 1, got 0"),
        (lambda d: d.pop("imagePath"), "top level: missing field 'imagePath'"),
        (lambda d: d.update(shapes={}), "shapes must be a list"),
    ],
    ids=["shape-not-object", "point-string", "point-nan", "point-triple", "empty-label", "bool-group-id",
         "bool-height", "fractional-height", "zero-width", "no-image-path", "shapes-object"],
)
def test_parse_labelme_invalid_field_names_record(edit, message):
    doc = json.loads(labelme_json())
    edit(doc)
    with pytest.raises(SchemaError) as e:
        parse_labelme(json.dumps(doc))
    assert str(e.value) == message


def test_parse_point_shape():
    text = labelme_json(shapes=[{"label": "nose", "points": [[5, 6]], "shape_type": "point"}])
    (shape,) = parse_labelme(text).shapes
    assert shape.shape_type == "point"
    assert shape.points == (Point(5.0, 6.0),)


# ---------------------------------------------------------------------------
# keypoint regions


def test_keypoint_region_is_regular_16gon():
    poly = keypoint_to_region(Point(50, 50), 5.0)
    assert len(poly.points) == 16
    assert poly.points[0] == pytest.approx((55.0, 50.0))  # first vertex at angle 0
    want_area = 0.5 * 16 * 25 * math.sin(2 * math.pi / 16)
    assert polygon_area(poly) == pytest.approx(want_area)
    assert polygon_area(poly) == pytest.approx(76.537, abs=1e-3)


def test_keypoint_region_centroid_at_center():
    poly = keypoint_to_region(Point(50, 50), 5.0)
    assert poly.centroid == pytest.approx((50.0, 50.0), abs=1e-9)


def test_keypoint_region_rejects_zero_radius():
    with pytest.raises(ValueError):
        keypoint_to_region(Point(0, 0), 0.0)


# ---------------------------------------------------------------------------
# labelme -> COCO


def test_convert_categories_sorted():
    docs = [
        parse_labelme(labelme_json("a.png", [polygon_shape("vole_2", SQUARE_PTS)])),
        parse_labelme(labelme_json("b.png", [polygon_shape("vole_1", SQUARE_PTS)])),
    ]
    ds = labelme_to_coco(docs)
    assert [(c.id, c.name) for c in ds.categories] == [(1, "vole_1"), (2, "vole_2")]


def test_convert_square_area_and_bbox():
    doc = parse_labelme(labelme_json("a.png", [polygon_shape("m", SQUARE_PTS)]))
    ds = labelme_to_coco([doc])
    (ann,) = ds.annotations
    assert ann.area == 100.0
    assert tuple(ann.bbox) == (10.0, 10.0, 10.0, 10.0)
    assert ann.iscrowd == 0


def test_convert_point_shape_uses_keypoint_region():
    doc = parse_labelme(
        labelme_json("a.png", [{"label": "nose", "points": [[30, 40]], "shape_type": "point"}])
    )
    ds = labelme_to_coco([doc], keypoint_radius=5.0)
    (ann,) = ds.annotations
    assert isinstance(ann.segmentation, Polygon)
    assert len(ann.segmentation.points) == 16
    assert ann.area == pytest.approx(76.537, abs=1e-3)


def test_convert_group_id_merges_rings():
    shapes = [
        polygon_shape("vole_1", SQUARE_PTS, group_id=7),
        polygon_shape("vole_1", [(40, 40), (44, 40), (44, 44), (40, 44)], group_id=7),
        polygon_shape("vole_1", [(60, 60), (62, 60), (62, 62), (60, 62)]),
    ]
    ds = labelme_to_coco([parse_labelme(labelme_json("a.png", shapes))])
    assert len(ds.annotations) == 2
    merged = ds.annotations[0]
    assert isinstance(merged.segmentation, MultiPolygon) and len(merged.segmentation) == 2
    assert merged.area == pytest.approx(100.0 + 16.0)
    assert tuple(merged.bbox) == (10.0, 10.0, 34.0, 34.0)


def test_convert_assigns_frame_index_by_position():
    docs = [
        parse_labelme(labelme_json("z.png", [polygon_shape("a", SQUARE_PTS)])),
        parse_labelme(labelme_json("y.png", [polygon_shape("a", SQUARE_PTS)])),
    ]
    ds = labelme_to_coco(docs)
    assert [img.frame_index for img in ds.images] == [0, 1]
    assert [img.file_name for img in ds.images] == ["z.png", "y.png"]


def test_convert_duplicate_file_name():
    docs = [
        parse_labelme(labelme_json("a.png", [polygon_shape("x", SQUARE_PTS)])),
        parse_labelme(labelme_json("a.png", [polygon_shape("y", SQUARE_PTS)])),
    ]
    with pytest.raises(ConflictError):
        labelme_to_coco(docs)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("group_id", [None, 4], ids=["one-shape", "grouped"])
def test_convert_rejects_coordinates_whose_area_overflows(group_id):
    huge = [(0, 0), (1e200, 0), (1e200, 1e200), (0, 1e200)]
    shapes = [polygon_shape("a", SQUARE_PTS), polygon_shape("b", SQUARE_PTS, group_id), polygon_shape("b", huge, group_id)]
    docs = [parse_labelme(labelme_json("a.png", [polygon_shape("a", SQUARE_PTS)])), parse_labelme(labelme_json("b.png", shapes))]
    shape = 1 if group_id is not None else 2
    with pytest.raises(OutOfRangeError, match=f"^document 'b.png', shape {shape}: coordinates too large: area Infinity, "):
        labelme_to_coco(docs)


SQUARE_10 = [(0, 0), (10, 0), (10, 10), (0, 10)]


@pytest.mark.parametrize(
    "second,group_id",
    [([(0, 0), (10, 0), (10, 5), (0, 5)], 4), ([(9.2, 2), (12, 2), (12, 4), (9.2, 4)], 0)],
    ids=["own-top-half", "two-pixels-of-one-column"],
)
def test_convert_refuses_group_whose_rings_share_a_pixel(second, group_id):
    shapes = [polygon_shape("a", SQUARE_10), polygon_shape("b", SQUARE_10, group_id), polygon_shape("b", second, group_id)]
    docs = [parse_labelme(labelme_json("a.png", [polygon_shape("a", SQUARE_PTS)])), parse_labelme(labelme_json("b.png", shapes))]
    with pytest.raises(ConflictError) as e:
        labelme_to_coco(docs)
    assert str(e.value) == f"document 'b.png', shape 1: the rings of group {group_id} share a pixel"
    shapes[2]["group_id"] = None  # the same rings as two instances are accepted
    assert len(labelme_to_coco([parse_labelme(labelme_json("b.png", shapes))]).annotations) == 3


@pytest.mark.parametrize(
    "second",
    [[(10, 0), (20, 0), (20, 10), (10, 10)], [(9.6, 2), (12, 2), (12, 4), (9.6, 4)], [(-20, -20), (5, -20), (5, 0.5), (-20, 0.5)]],
    ids=["shared-edge", "crossing-no-center", "overlap-outside-frame"],
)
def test_convert_accepts_group_whose_rings_share_no_pixel_center(second):
    shapes = [polygon_shape("b", SQUARE_10, 2), polygon_shape("b", second, 2)]
    (ann,) = labelme_to_coco([parse_labelme(labelme_json("b.png", shapes))]).annotations
    assert isinstance(ann.segmentation, MultiPolygon)
    assert ann.area == 100.0 + Polygon(second).area


def test_convert_refuses_a_group_too_large_to_check_for_a_shared_pixel(monkeypatch):
    tall, small = [(0, 0), (10, 0), (10, 1e12)], [(12, 1), (15, 1), (15, 4)]
    shapes = [polygon_shape("a", SQUARE_10), polygon_shape("b", tall, 7), polygon_shape("b", small, 7)]
    # an image of 2**30 pixels holds no more than the cap, so the group is checked, and its rings share no pixel
    (ann,) = labelme_to_coco([parse_labelme(labelme_json("b.png", shapes[1:], imageHeight=2**16, imageWidth=2**14))]).annotations
    assert isinstance(ann.segmentation, MultiPolygon)
    monkeypatch.setattr(geometry, "_spans_many", lambda *args: pytest.fail("cut a group past the cap into spans"))
    big = parse_labelme(labelme_json("big.png", shapes, imageHeight=10**13, imageWidth=16))
    with pytest.raises(OversizedPolygonError) as e:
        labelme_to_coco([parse_labelme(labelme_json("a.png", [polygon_shape("a", SQUARE_PTS)])), big])
    assert str(e.value) == (
        "document 'big.png', shape 1: group 7: polygon with bbox [0.0, 0.0, 15.0, 1000000000000.0] is too large for"
        " an overlap check, which fills at most 1,073,741,824 pixels of a polygon, each within 4,611,686,018,427,387,904"
        " of the origin"
    )


def test_convert_preserves_shape_count_without_groups():
    shapes = [polygon_shape(f"v{i}", SQUARE_PTS) for i in range(5)]
    ds = labelme_to_coco([parse_labelme(labelme_json("a.png", shapes))])
    assert len(ds.annotations) == 5


def test_convert_category_ids_are_bijection():
    docs = [
        parse_labelme(
            labelme_json(f"{i}.png", [polygon_shape(lbl, SQUARE_PTS) for lbl in labels])
        )
        for i, labels in enumerate([["b", "a"], ["c"], ["a", "c"]])
    ]
    ds = labelme_to_coco(docs)
    assert [(c.id, c.name) for c in ds.categories] == [(1, "a"), (2, "b"), (3, "c")]


# ---------------------------------------------------------------------------
# splitting


def _dataset(n_images=10, n_cats=2):
    ds = CocoDataset(categories=[CocoCategory(i + 1, f"c{i}") for i in range(n_cats)])
    ann_id = 1
    for i in range(n_images):
        ds.images.append(CocoImage(i + 1, f"f{i:03d}.png", 50, 50, frame_index=i))
        ds.annotations.append(
            CocoAnnotation(
                id=ann_id,
                image_id=i + 1,
                category_id=(i % n_cats) + 1,
                segmentation=Polygon.from_xy(SQUARE_PTS),
                bbox=(10.0, 10.0, 10.0, 10.0),
                area=100.0,
                iscrowd=0,
            )
        )
        ann_id += 1
    return ds


def test_split_sizes():
    res = split_dataset(_dataset(10), ratio=0.8, seed=42)
    assert len(res.train.images) == 8
    assert len(res.val.images) == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_split_of_few_images_keeps_one_for_validation(n):
    res = split_dataset(_dataset(n), ratio=0.8, seed=0)
    assert (len(res.train.images), len(res.val.images)) == (n - 1, 1)


@pytest.mark.parametrize("n", [5, 6, 7, 10, 13])
def test_split_of_five_images_or_more_trains_on_the_ceiling(n):
    res = split_dataset(_dataset(n), ratio=0.8, seed=3)
    order = list(range(n))
    random.Random(3).shuffle(order)
    n_train = math.ceil(0.8 * n)
    assert [i.file_name for i in res.train.images] == [f"f{k:03d}.png" for k in sorted(order[:n_train])]
    assert [i.file_name for i in res.val.images] == [f"f{k:03d}.png" for k in sorted(order[n_train:])]


def test_split_deterministic():
    a = split_dataset(_dataset(10), ratio=0.8, seed=7)
    b = split_dataset(_dataset(10), ratio=0.8, seed=7)
    assert [i.file_name for i in a.train.images] == [i.file_name for i in b.train.images]
    assert [i.file_name for i in a.val.images] == [i.file_name for i in b.val.images]


def test_split_partitions_disjoint_and_complete():
    ds = _dataset(13)
    res = split_dataset(ds, ratio=0.6, seed=3)
    train_names = {i.file_name for i in res.train.images}
    val_names = {i.file_name for i in res.val.images}
    assert not train_names & val_names
    assert train_names | val_names == {i.file_name for i in ds.images}
    assert [c.name for c in res.train.categories] == [c.name for c in res.val.categories]


def test_split_annotations_follow_images():
    res = split_dataset(_dataset(10), ratio=0.8, seed=0)
    for part in (res.train, res.val):
        image_ids = {i.id for i in part.images}
        assert all(a.image_id in image_ids for a in part.annotations)
        assert [a.id for a in part.annotations] == list(range(1, len(part.annotations) + 1))
    assert len(res.train.annotations) + len(res.val.annotations) == 10


def test_split_rejects_bad_ratio():
    with pytest.raises(ValueError):
        split_dataset(_dataset(10), ratio=1.0)


def test_split_rejects_tiny_dataset():
    with pytest.raises(ValueError):
        split_dataset(_dataset(1), ratio=0.5)


# ---------------------------------------------------------------------------
# frame sampling


def test_sample_uniform_stride():
    assert sample_frames(100, 5, strategy="uniform") == [0, 20, 40, 60, 80]


def test_sample_random_exhaustive():
    assert sample_frames(10, 10, strategy="random", seed=5) == list(range(10))


def test_sample_random_deterministic():
    a = sample_frames(1000, 200, strategy="random", seed=11)
    b = sample_frames(1000, 200, strategy="random", seed=11)
    assert a == b
    assert len(set(a)) == 200
    assert a == sorted(a)
    assert all(0 <= v < 1000 for v in a)


def test_sample_rejects_oversized_k():
    with pytest.raises(ValueError):
        sample_frames(10, 11)


# ---------------------------------------------------------------------------
# COCO JSON roundtrip


def test_coco_roundtrip():
    ds = _dataset(4)
    again = read_coco(write_coco(ds))
    assert [i.__dict__ for i in again.images] == [i.__dict__ for i in ds.images]
    assert [c.__dict__ for c in again.categories] == [c.__dict__ for c in ds.categories]
    assert len(again.annotations) == len(ds.annotations)
    for a, b in zip(again.annotations, ds.annotations):
        assert a.id == b.id and a.image_id == b.image_id and a.area == b.area
        assert a.segmentation == b.segmentation


def test_coco_write_is_byte_stable():
    assert write_coco(_dataset(4)) == write_coco(_dataset(4))


def test_coco_dangling_reference():
    ds = _dataset(2)
    ds.annotations[0].image_id = 99
    with pytest.raises(IntegrityError, match="99|reference"):
        read_coco(write_coco(ds))


def test_coco_empty_annotations_valid():
    ds = CocoDataset(
        images=[CocoImage(1, "a.png", 10, 10)],
        categories=[CocoCategory(1, "x")],
    )
    assert read_coco(write_coco(ds)).annotations == []


def test_coco_duplicate_ids_rejected():
    ds = _dataset(2)
    ds.images[1].id = ds.images[0].id
    with pytest.raises(IntegrityError, match="duplicate"):
        read_coco(json.dumps(json.loads(write_coco(ds))).encode())


def _coco_doc(n=2):
    return json.loads(write_coco(_dataset(n)))


@pytest.mark.parametrize("section,kind", [("annotations", "annotation"), ("images", "image"), ("categories", "category")])
def test_coco_missing_field_names_record(section, kind):
    doc = _coco_doc()
    del doc[section][-1]["id"]
    i = len(doc[section]) - 1
    with pytest.raises(SchemaError, match=f"^{kind} {i}: missing field 'id'$"):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize(
    "field,value",
    [("image_id", "one"), ("category_id", None), ("area", [1]), ("bbox", [1, 2]), ("segmentation", [[0, 0, "x", 1, 2, 2]]),
     ("id", True), ("image_id", "1"), ("category_id", 1.5), ("iscrowd", False), ("area", "100"), ("area", True),
     ("bbox", ["1", "2", "3", "4"]), ("bbox", [1, 2, True, 4]), ("bbox", [math.nan, 1, 2, 3]),
     ("bbox", [1, 2, math.inf, 3])],
)
def test_coco_invalid_annotation_field_names_record(field, value):
    doc = _coco_doc()
    doc["annotations"][1][field] = value
    with pytest.raises(SchemaError, match=f"^annotation 1: invalid {field}: "):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize(
    "section,kind,field,value",
    [("images", "image", "id", True), ("images", "image", "height", 4.9), ("images", "image", "width", "8"),
     ("images", "image", "frame_index", "0"), ("categories", "category", "id", False),
     ("images", "image", "file_name", 7), ("images", "image", "file_name", None), ("categories", "category", "name", False)],
)
def test_coco_integer_fields_are_strict(section, kind, field, value):
    doc = _coco_doc()
    doc[section][0][field] = value
    expected = "a string" if field in ("file_name", "name") else "an integer"
    with pytest.raises(SchemaError, match=f"^{kind} 0: invalid {field}: expected {expected}, got {json.dumps(value)}$"):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize("value,shown", [(math.nan, "NaN"), (math.inf, "Infinity"), (-5, "-5")],
                         ids=["nan", "infinity", "negative"])
def test_coco_invalid_area_rejected(value, shown):
    doc = _coco_doc()
    doc["annotations"][1]["area"] = value
    with pytest.raises(SchemaError, match=f"^annotation 1: invalid area: expected a finite number >= 0, got {shown}$"):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize("field,value", [("height", -4), ("width", 0)])
def test_coco_image_size_must_be_positive(field, value):
    doc = _coco_doc()
    doc["images"][1][field] = value
    with pytest.raises(SchemaError, match=f"^image 1: invalid {field}: expected an integer >= 1, got {value}$"):
        read_coco(json.dumps(doc))


def test_coco_repeated_frame_index_rejected_on_read():
    doc = _coco_doc(3)
    for i, img in enumerate(doc["images"]):
        img["frame_index"] = min(i, 1)
    with pytest.raises(IntegrityError, match="^duplicate frame_index 1$"):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize("text", ["[" * 100_000, '{"images": [' + "9" * 5000 + "]}"], ids=["deep-nesting", "huge-int"])
def test_json_beyond_the_decoder_limits_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^malformed JSON: "):
        read_coco(text)
    with pytest.raises(ParseError, match="^line 1: malformed JSON: "):
        parse_predictions(text)


def test_coco_integral_float_reads_as_int():
    doc = _coco_doc()
    doc["images"][0]["height"] = float(doc["images"][0]["height"])
    height = read_coco(json.dumps(doc)).images[0].height
    assert type(height) is int and height == doc["images"][0]["height"]


@pytest.mark.parametrize("ring,bad", [(["0", True, "4", 0, 4, 4], '"0"'), ([0, True, 4, 0, 4, 4], "true")])
def test_polygon_coordinates_must_be_json_numbers(ring, bad):
    doc = _coco_doc()
    doc["annotations"][1]["segmentation"] = [[0, 0, 4, 0, 4, 4], ring]
    message = f"invalid segmentation: polygon coordinates must be numbers, got {bad}"
    with pytest.raises(SchemaError) as e:
        read_coco(json.dumps(doc))
    assert str(e.value) == f"annotation 1: {message}"
    raw = json.loads(prediction_line())
    raw["segmentation"] = [ring]
    with pytest.raises(SchemaError) as e:
        parse_predictions(prediction_line() + "\n" + json.dumps(raw))
    assert str(e.value) == f"line 2: {message}"


def test_coco_segmentation_errors_name_record():
    doc = _coco_doc()
    doc["annotations"][0]["segmentation"] = {"size": [4, 4], "counts": [3, 2]}
    with pytest.raises(CorruptRleError, match="^annotation 0: counts sum"):
        read_coco(json.dumps(doc))


_BAD_COUNTS = [
    ("0~", CorruptStringError, "character '~' at offset 1 outside [48, 111]"),
    ("T", CorruptStringError, "truncated continuation after 1 group(s) at offset 1"),
    ("9", CorruptRleError, "counts sum 9 != 4x4 = 16"),
]


@pytest.mark.parametrize("counts,error,message", _BAD_COUNTS, ids=["bad-character", "truncated", "wrong-sum"])
def test_coco_bad_counts_string_names_record(counts, error, message):
    doc = _coco_doc(3)
    doc["annotations"][1]["segmentation"] = {"size": [4, 4], "counts": counts}
    with pytest.raises(error, match=f"^{re.escape(f'annotation 1: {message}')}$"):
        read_coco(json.dumps(doc))


@pytest.mark.parametrize("bad", [7, ["not an object"]])
def test_coco_malformed_section_rejected(bad):
    doc = _coco_doc()
    doc["images"] = bad
    with pytest.raises(SchemaError, match="images must be a list|image 0: record must be an object"):
        read_coco(json.dumps(doc))


def test_coco_duplicate_ids_message():
    doc = _coco_doc(3)
    for ann in doc["annotations"]:
        ann["id"] = 5
    doc["categories"].append(dict(doc["categories"][0]))
    with pytest.raises(IntegrityError) as e:
        read_coco(json.dumps(doc))
    assert str(e.value) == f"duplicate annotation ids [5]; duplicate category ids [{doc['categories'][0]['id']}]"


def test_segmentation_forms_roundtrip():
    ring = Polygon.from_xy(SQUARE_PTS)
    assert decode_segmentation(encode_segmentation(ring)) == ring
    multi = MultiPolygon([ring, Polygon.from_xy([(0, 0), (2, 0), (2, 2), (0, 2)])])
    assert decode_segmentation(encode_segmentation(multi)) == multi
    rle = RleMask(4, 4, (3, 2, 11))
    assert decode_segmentation(encode_segmentation(rle)) == rle
    assert decode_segmentation({"size": [4, 4], "counts": [3, 2, 11]}) == rle


# ---------------------------------------------------------------------------
# prediction streams


def prediction_line(frame=0, label="vole_1", score=0.9):
    return json.dumps(
        {
            "frame": frame,
            "label": label,
            "score": score,
            "bbox": [1.0, 2.0, 3.0, 4.0],
            "segmentation": [[10, 10, 20, 10, 20, 20, 10, 20]],
        }
    )


def test_parse_predictions_basic():
    stream = "\n".join(prediction_line(frame=i) for i in range(3))
    records = parse_predictions(stream)
    assert [r.frame for r in records] == [0, 1, 2]
    assert records[0].label == "vole_1"
    assert isinstance(records[0].segmentation, Polygon)


def test_parse_predictions_score_out_of_range():
    stream = prediction_line(0) + "\n" + prediction_line(1, score=1.5)
    with pytest.raises(OutOfRangeError, match="line 2"):
        parse_predictions(stream)


def test_parse_predictions_empty_stream():
    assert parse_predictions("") == []


def test_parse_predictions_reports_line_of_bad_json():
    with pytest.raises(ParseError, match="line 2"):
        parse_predictions(prediction_line(0) + "\n{oops\n")


def test_parse_predictions_missing_field():
    raw = json.loads(prediction_line())
    del raw["bbox"]
    with pytest.raises(SchemaError, match="line 1"):
        parse_predictions(json.dumps(raw))


@pytest.mark.parametrize("field,value", [("frame", True), ("frame", False), ("score", True), ("score", False)])
def test_parse_predictions_rejects_booleans(field, value):
    raw = json.loads(prediction_line())
    raw[field] = value
    expected = "an integer" if field == "frame" else "a number"
    with pytest.raises(SchemaError, match=f"^line 2: invalid {field}: expected {expected}, got {json.dumps(value)}$"):
        parse_predictions(prediction_line() + "\n" + json.dumps(raw))


@pytest.mark.parametrize(
    "field,value",
    [("bbox", [1, "x", 3, 4]), ("segmentation", [[0, 0, "x", 0, 4, 4]]), ("segmentation", {"size": ["h", 4], "counts": "0"}),
     ("bbox", ["1", "2", "3", "4"]), ("bbox", [1, 2, 3, False]), ("bbox", [math.nan, 1, 2, 3]), ("bbox", [1, 2, 3]),
     ("frame", -1), ("frame", 2.5), ("label", ""), ("label", 3)],
)
def test_parse_predictions_non_numeric_names_line(field, value):
    raw = json.loads(prediction_line())
    raw[field] = value
    with pytest.raises(SchemaError, match=f"^line 2: invalid {field}: "):
        parse_predictions(prediction_line() + "\n" + json.dumps(raw))


@pytest.mark.parametrize("counts,error,message", _BAD_COUNTS, ids=["bad-character", "truncated", "wrong-sum"])
def test_parse_predictions_bad_counts_string_names_line(counts, error, message):
    raw = json.loads(prediction_line())
    raw["segmentation"] = {"size": [4, 4], "counts": counts}
    with pytest.raises(error, match=f"^{re.escape(f'line 3: {message}')}$"):
        parse_predictions("\n".join([prediction_line(), "", json.dumps(raw), prediction_line()]))


def test_predictions_roundtrip():
    records = parse_predictions("\n".join(prediction_line(frame=i, score=0.25 * i) for i in range(4)))
    assert parse_predictions(write_predictions(records)) == records


# ---------------------------------------------------------------------------
# the writers equal json.dumps byte for byte

_NAMES = st.one_of(st.text(), st.text(st.sampled_from('a"\\/\x00\n\t\x7fé☃\U0001f600\ud800'), min_size=1))
_SCALARS = st.one_of(
    st.integers(),
    st.floats(),  # NaN and both infinities included, which json spells NaN and Infinity
    st.booleans(),
    st.sampled_from([1e16, 5e-324, -0.0, 1e-7, 0.1, 1.7976931348623157e308, 2**63, -(2**64)]),
)
_COORDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1e16, 5e-324, -0.0, 0.5]))
_POLYGONS = st.lists(st.tuples(_COORDS, _COORDS), min_size=3, max_size=5).map(Polygon)


@st.composite
def _masks(draw):
    """Legal counts, zero-length runs and a leading one-run included, on small frames."""
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    cuts = sorted(draw(st.lists(st.integers(0, h * w), max_size=10)))
    return RleMask(h, w, tuple(b - a for a, b in zip([0, *cuts], [*cuts, h * w])))


_SEGMENTATIONS = st.one_of(
    _POLYGONS,
    st.lists(_POLYGONS, min_size=1, max_size=3).map(MultiPolygon),
    _masks(),
    st.just(RleMask(1, 2**70, (0, 2**70))),  # past int64: the one-mask encoder
)
_BOXES = st.one_of(st.tuples(_SCALARS, _SCALARS, _SCALARS, _SCALARS).map(lambda b: BoundingBox(*b)), st.lists(_SCALARS, max_size=2))
_DATASETS = st.builds(
    CocoDataset,
    images=st.lists(st.builds(CocoImage, _SCALARS, _NAMES, _SCALARS, _SCALARS, st.one_of(st.none(), _SCALARS)), max_size=3),
    annotations=st.lists(st.builds(CocoAnnotation, _SCALARS, _SCALARS, _SCALARS, _SEGMENTATIONS, _BOXES, _SCALARS, _SCALARS), max_size=4),
    categories=st.lists(st.builds(CocoCategory, _SCALARS, _NAMES), max_size=3),
)
_RECORDS = st.lists(
    st.builds(
        DetectionRecord,
        st.integers(0, 2**70),
        _NAMES.filter(bool),
        st.one_of(st.floats(0, 1), st.sampled_from([0, 1, True, False, 5e-324, -0.0])),
        _SEGMENTATIONS,
        _BOXES,
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_DATASETS)
@example(CocoDataset())
@example(
    CocoDataset(
        images=[CocoImage(1, 'a"\\b.png', 4, 4, 0), CocoImage(2, "ünïcode ☃.png", 4, 4)],
        annotations=[
            CocoAnnotation(1, 1, 1, RleMask(1, 50, (0, 44, 6)), BoundingBox(0.0, 0.0, 44.0, 1.0), 44.0),  # counts 0\\16
            CocoAnnotation(2, 2, 1, Polygon.from_xy([(1e16, 5e-324), (-0.0, 3), (2, 2)]), [], -0.0, True),
        ],
        categories=[CocoCategory(1, "\\")],
    )
)
def test_write_coco_equals_json_dumps_oracle(ds):
    assert write_coco(ds) == reference_write_coco(ds)


@settings(max_examples=300, deadline=None)
@given(_RECORDS)
@example([])
@example([DetectionRecord(0, '"\\é', 1, RleMask(1, 50, (0, 44, 6)), BoundingBox(float("nan"), float("inf"), -0.0, 1e16))])
def test_write_predictions_equals_json_dumps_oracle(records):
    assert write_predictions(records) == reference_write_predictions(records)


def test_written_counts_string_escapes_its_backslash():
    mask = RleMask(1, 50, (0, 44, 6))  # the count 44 opens with the group 12 | 32, the character "\\"
    ds = CocoDataset(
        images=[CocoImage(1, "a.png", 1, 50)],
        annotations=[CocoAnnotation(1, 1, 1, mask, mask.bbox, 44.0)],
        categories=[CocoCategory(1, "a")],
    )
    assert b'"counts": "0\\\\16"' in write_coco(ds)
    assert read_coco(write_coco(ds)).annotations[0].segmentation == mask
    record = DetectionRecord(0, "a", 1.0, mask, mask.bbox)
    assert b'"counts": "0\\\\16"' in write_predictions([record])
    assert parse_predictions(write_predictions([record])) == [record]


# ---------------------------------------------------------------------------
# dataset -> tracks


def test_image_frame_map_prefers_frame_index():
    ds = _dataset(3)
    ds.images[0].frame_index = 10
    ds.images[1].frame_index = 5
    ds.images[2].frame_index = 7
    assert sorted(image_frame_map(ds)) == [5, 7, 10]


def test_image_frame_map_falls_back_to_file_name_order():
    ds = _dataset(3)
    for img in ds.images:
        img.frame_index = None
    ds.images[0].file_name = "c.png"
    ds.images[2].file_name = "a.png"
    mapping = image_frame_map(ds)
    assert [mapping[i].file_name for i in range(3)] == ["a.png", "c.png", "f001.png"]


def test_coco_to_tracks():
    ds = _dataset(6, n_cats=2)
    tracks = coco_to_tracks(ds)
    assert [t.label for t in tracks] == ["c0", "c1"]
    assert tracks[0].present_frames() == [0, 2, 4]
    assert tracks[1].present_frames() == [1, 3, 5]
    state = tracks[0].states[0]
    assert state.segmentation is not None
    assert state.centroid == pytest.approx((15.0, 15.0))


def test_coco_to_tracks_rejects_duplicate_identity_per_frame():
    ds = _dataset(2, n_cats=1)
    ds.annotations.append(
        CocoAnnotation(
            id=99,
            image_id=1,
            category_id=1,
            segmentation=Polygon.from_xy(SQUARE_PTS),
            bbox=(10.0, 10.0, 10.0, 10.0),
            area=100.0,
        )
    )
    with pytest.raises(SchemaError):
        coco_to_tracks(ds)
