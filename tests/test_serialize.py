import pytest

from nlo.certificates import certify, verify_certificate
from nlo.families import FamilyParams, build
from nlo.serialize import (
    SchemaError,
    certificate_from_doc,
    certificate_to_doc,
    knot_data_to_doc,
)


def test_knot_data_doc_contents():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    doc = knot_data_to_doc(kd)
    assert doc["v"] == 19
    assert doc["q"] == 5
    assert doc["mu"] == "a^-1 b^2"
    assert doc["lspace"] == {"is_lspace_knot": True, "case": "ell=p-1"}


def test_certificate_round_trip_including_trace():
    kd = build(FamilyParams(4, 1, -1, 2, 1))
    cert = certify(kd)
    assert len(cert.trace) == 1
    doc = certificate_to_doc(cert)
    back = certificate_from_doc(doc)
    assert back == cert
    assert certificate_to_doc(back) == doc
    assert verify_certificate(kd, back).passed


def test_certificate_rejects_unknown_version():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    doc = certificate_to_doc(certify(kd))
    doc["schema_version"] = 99
    with pytest.raises(SchemaError):
        certificate_from_doc(doc)


def test_malformed_certificate_reports_schema_error():
    kd = build(FamilyParams(3, 2, -1, 2, 1))
    doc = certificate_to_doc(certify(kd))
    del doc["positive_s"]
    with pytest.raises(SchemaError):
        certificate_from_doc(doc)
