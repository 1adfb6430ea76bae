//! Binary serialization of graphs and datasets.
//!
//! A compact little-endian format (`ARGOGRPH` magic + version) so synthetic
//! datasets can be generated once and shared across runs/machines — the
//! moral equivalent of the OGB download step this environment cannot
//! perform. No external serialization crate is needed; the format is a
//! straight dump of the CSR arrays and feature/label tables.

use std::io::{self, Read, Write};

use crate::csr::Graph;
use crate::datasets::{Dataset, DatasetSpec};
use crate::features::Features;

const MAGIC: &[u8; 8] = b"ARGOGRPH";
const VERSION: u32 = 1;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Writes `v` as a `u64` length followed by each item's `N` bytes.
fn write_vec<T: Copy, const N: usize>(
    w: &mut impl Write,
    v: &[T],
    to_le: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    write_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&to_le(x))?;
    }
    Ok(())
}

/// Reads what [`write_vec`] wrote. The buffer grows with the bytes that
/// actually arrive, not with the length field, so a corrupt length on a
/// short stream is an error instead of an overflow or a huge allocation.
fn read_vec<T, const N: usize>(
    r: &mut impl Read,
    from_le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let bytes = read_u64(r)?
        .checked_mul(N as u64)
        .ok_or_else(|| bad("length field overflows"))?;
    let mut buf = Vec::new();
    r.by_ref().take(bytes).read_to_end(&mut buf)?;
    if (buf.len() as u64) < bytes {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "stream ends before the declared length",
        ));
    }
    Ok(buf.as_chunks::<N>().0.iter().map(|&c| from_le(c)).collect())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `graph` in the binary format.
pub fn write_graph(w: &mut impl Write, graph: &Graph) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u64(w, graph.num_nodes() as u64)?;
    write_vec(w, graph.indptr(), |p| (p as u64).to_le_bytes())?;
    write_vec(w, graph.indices(), u32::to_le_bytes)
}

/// Reads a graph written by [`write_graph`]; validates the CSR invariants.
pub fn read_graph(r: &mut impl Read) -> io::Result<Graph> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not an ARGO graph file"));
    }
    let version = read_u32(r)?;
    if version != VERSION {
        return Err(bad("unsupported format version"));
    }
    let _nodes = read_u64(r)?;
    let indptr = read_vec(r, |b| u64::from_le_bytes(b) as usize)?;
    let indices = read_vec(r, u32::from_le_bytes)?;
    let g = Graph::from_csr_checked(indptr, indices).map_err(|e| bad(&e))?;
    Ok(g)
}

/// Writes a full dataset (graph, features, labels, splits).
pub fn write_dataset(w: &mut impl Write, d: &Dataset) -> io::Result<()> {
    write_graph(w, &d.graph)?;
    write_u64(w, d.features.dim() as u64)?;
    write_vec(w, d.features.data(), f32::to_le_bytes)?;
    for ids in [&d.labels, &d.train_nodes, &d.val_nodes] {
        write_vec(w, ids, u32::to_le_bytes)?;
    }
    write_u64(w, d.num_classes as u64)?;
    // Spec essentials (name resolved against the known table on load).
    write_vec(w, d.spec.name.as_bytes(), |b| [b])?;
    for v in [
        d.spec.num_nodes,
        d.spec.num_edges,
        d.spec.f0,
        d.spec.f1,
        d.spec.f2,
    ] {
        write_u64(w, v as u64)?;
    }
    Ok(())
}

/// Reads a dataset written by [`write_dataset`].
pub fn read_dataset(r: &mut impl Read) -> io::Result<Dataset> {
    let graph = read_graph(r)?;
    let dim = read_u64(r)? as usize;
    let feat_data = read_vec(r, f32::from_le_bytes)?;
    if dim == 0 || feat_data.len() % dim != 0 {
        return Err(bad("corrupt feature table"));
    }
    let features = Features::new(feat_data, dim);
    if features.num_nodes() != graph.num_nodes() {
        return Err(bad("feature/graph node-count mismatch"));
    }
    let labels = read_vec(r, u32::from_le_bytes)?;
    if labels.len() != graph.num_nodes() {
        return Err(bad("label/graph node-count mismatch"));
    }
    let train_nodes = read_vec(r, u32::from_le_bytes)?;
    let val_nodes = read_vec(r, u32::from_le_bytes)?;
    let num_classes = read_u64(r)? as usize;
    if labels.iter().any(|&l| l as usize >= num_classes) {
        return Err(bad("label out of class range"));
    }
    if train_nodes
        .iter()
        .chain(&val_nodes)
        .any(|&v| v as usize >= graph.num_nodes())
    {
        return Err(bad("split node out of range"));
    }
    let name =
        String::from_utf8(read_vec(r, |[b]| b)?).map_err(|_| bad("non-utf8 dataset name"))?;
    let mut nums = [0u64; 5];
    for v in nums.iter_mut() {
        *v = read_u64(r)?;
    }
    // Resolve the name against the known specs; otherwise a generic tag.
    let known = crate::datasets::ALL_SPECS
        .iter()
        .find(|s| s.name == name)
        .copied();
    let spec = known.unwrap_or(DatasetSpec {
        name: "custom",
        num_nodes: nums[0] as usize,
        num_edges: nums[1] as usize,
        f0: nums[2] as usize,
        f1: nums[3] as usize,
        f2: nums[4] as usize,
    });
    Ok(Dataset {
        spec,
        graph,
        features,
        labels,
        train_nodes,
        val_nodes,
        num_classes,
    })
}

/// Parses a whitespace/comment-tolerant edge-list text file (the SNAP /
/// `ogbn` raw format: one `src dst` pair per line, `#` comments). Node ids
/// may be sparse; they are compacted to `0..n` and the mapping returned.
pub fn read_edge_list(r: &mut impl Read, undirected: bool) -> io::Result<(Graph, Vec<u64>)> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut remap: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    let mut ids: Vec<u64> = Vec::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let local =
        |raw: u64, remap: &mut std::collections::HashMap<u64, u32>, ids: &mut Vec<u64>| -> u32 {
            *remap.entry(raw).or_insert_with(|| {
                ids.push(raw);
                (ids.len() - 1) as u32
            })
        };
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (a, b) = (parts.next(), parts.next());
        let (Some(a), Some(b)) = (a, b) else {
            return Err(bad(&format!("line {}: expected 'src dst'", lineno + 1)));
        };
        let a: u64 = a
            .parse()
            .map_err(|_| bad(&format!("line {}: bad id '{a}'", lineno + 1)))?;
        let b: u64 = b
            .parse()
            .map_err(|_| bad(&format!("line {}: bad id '{b}'", lineno + 1)))?;
        let (u, v) = (
            local(a, &mut remap, &mut ids),
            local(b, &mut remap, &mut ids),
        );
        edges.push((u, v));
    }
    if ids.is_empty() {
        return Err(bad("empty edge list"));
    }
    Ok((Graph::from_edges(ids.len(), &edges, undirected), ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::FLICKR;
    use crate::generators::power_law;

    #[test]
    fn graph_roundtrip() {
        let g = power_law(500, 4000, 0.8, 3);
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        let g2 = read_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn dataset_roundtrip() {
        let d = FLICKR.synthesize(0.01, 9);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let d2 = read_dataset(&mut buf.as_slice()).unwrap();
        assert_eq!(d.graph, d2.graph);
        assert_eq!(d.features, d2.features);
        assert_eq!(d.labels, d2.labels);
        assert_eq!(d.train_nodes, d2.train_nodes);
        assert_eq!(d.val_nodes, d2.val_nodes);
        assert_eq!(d.num_classes, d2.num_classes);
        assert_eq!(d.spec.name, d2.spec.name); // known spec resolved
    }

    #[test]
    fn rejects_wrong_magic() {
        let buf = b"NOTAGRPH________".to_vec();
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let g = power_law(100, 500, 0.8, 1);
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_corrupt_indptr() {
        let g = power_law(100, 500, 0.8, 2);
        let mut buf = Vec::new();
        write_graph(&mut buf, &g).unwrap();
        // Smash an indptr entry (monotonicity violated) — bytes after the
        // 8B magic + 4B version + 8B nodes + 8B len.
        let off = 8 + 4 + 8 + 8 + 16;
        buf[off] = 0xFF;
        buf[off + 1] = 0xFF;
        assert!(read_graph(&mut buf.as_slice()).is_err());
    }

    /// A graph file's first 28 bytes (magic, version, node count) followed
    /// by an indptr length of `np`.
    fn header_claiming(np: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.extend(VERSION.to_le_bytes());
        buf.extend(0u64.to_le_bytes());
        buf.extend(np.to_le_bytes());
        buf
    }

    /// A one-node graph file whose indices length field reads `len`.
    fn indices_claiming(len: u64) -> Vec<u8> {
        let mut buf = header_claiming(2);
        buf.extend([0u64, 0].iter().flat_map(|p| p.to_le_bytes()));
        buf.extend(len.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_an_indptr_length_past_the_address_space() {
        let err = read_graph(&mut header_claiming(1 << 61).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_an_indices_length_whose_byte_count_overflows() {
        let err = read_graph(&mut indices_claiming(u64::MAX).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_an_indices_length_longer_than_the_stream() {
        // 2^40 entries would be a 4 TiB buffer if sized from the header.
        let err = read_graph(&mut indices_claiming(1 << 40).as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(read_graph(&mut indices_claiming(1).as_slice()).is_err());
        // The same file with the length it really has is a valid graph.
        assert!(read_graph(&mut indices_claiming(0).as_slice()).is_ok());
    }

    #[test]
    fn rejects_a_dataset_name_longer_than_the_stream() {
        let d = FLICKR.synthesize(0.01, 5);
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        // The tail is the name length, the name and five u64 spec fields.
        let at = buf.len() - 5 * 8 - d.spec.name.len() - 8;
        buf[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = read_dataset(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn edge_list_parses_snap_format() {
        let text = "# comment line\n% another comment\n10 20\n20 30\n\n10 30\n";
        let (g, ids) = read_edge_list(&mut text.as_bytes(), true).unwrap();
        assert_eq!(ids, vec![10, 20, 30]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6); // 3 undirected pairs
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn edge_list_directed_and_sparse_ids() {
        let text = "1000000 5\n5 1000000\n";
        let (g, ids) = read_edge_list(&mut text.as_bytes(), false).unwrap();
        assert_eq!(ids, vec![1_000_000, 5]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list(&mut "1 two\n".as_bytes(), false).is_err());
        assert!(read_edge_list(&mut "lonely\n".as_bytes(), false).is_err());
        assert!(read_edge_list(&mut "# only comments\n".as_bytes(), false).is_err());
    }

    #[test]
    fn unknown_dataset_name_becomes_custom() {
        let mut d = FLICKR.synthesize(0.01, 4);
        d.spec.name = "my-private-graph";
        let mut buf = Vec::new();
        write_dataset(&mut buf, &d).unwrap();
        let d2 = read_dataset(&mut buf.as_slice()).unwrap();
        assert_eq!(d2.spec.name, "custom");
        assert_eq!(d2.spec.num_nodes, d.spec.num_nodes);
    }
}
