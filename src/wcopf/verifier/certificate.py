"""Serializable verification certificates.

Documents are plain dicts rendered with sorted keys and repr floats, so
identical runs write byte-identical files.
"""

import json


def save_certificate(path, cert, model_sha256=None, extras=None):
    """Write the certificate of one verification as a JSON document."""
    doc = {
        "v_g": float(cert.value),
        "bound": float(cert.bound),
        "gap": float(cert.gap),
        "status": cert.status,
        "nodes_explored": int(cert.nodes_explored),
        "lp_pivots": int(cert.lp_pivots),
        "constraint": None,
        "witness": None,
        "pattern": None,
    }
    if cert.constraint_id is not None:
        g, side = cert.constraint_id
        doc["constraint"] = {"generator": int(g), "side": side}
        doc["witness"] = [float(v) for v in cert.witness]
        doc["pattern"] = [[int(b) for b in layer] for layer in cert.pattern]
    if model_sha256 is not None:
        doc["model_sha256"] = model_sha256
    if extras:
        doc.update(extras)
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
