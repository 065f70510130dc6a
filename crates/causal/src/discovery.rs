//! PC-style constraint-based structure discovery (skeleton phase).
//!
//! A deterministic, small-scale equivalent of causal-learn's PC: start from
//! the complete graph and remove edges whose endpoints test independent
//! given conditioning sets of growing size drawn from current neighbours.
//! Orientation is not needed by the paper's utility metrics (they count
//! correctly identified *related* attributes), so we stop at the skeleton.

use crate::independence::fisher_z_test;

/// Discovered undirected skeleton: `adjacency[i]` lists i's neighbours.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// Sorted adjacency lists.
    pub adjacency: Vec<Vec<usize>>,
}

impl Skeleton {
    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }
}

/// All size-`k` subsets of `pool` in lexicographic order.
fn subsets(pool: &[usize], k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if k > pool.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| pool[i]).collect());
        // advance combination
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + pool.len() - k {
                break;
            }
            if i == 0 {
                return out;
            }
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// PC skeleton over column-major data.
///
/// `alpha` is the independence-test significance level; `max_cond` bounds
/// the conditioning-set size (2 suffices at our attribute counts).
pub fn pc_skeleton(columns: &[Vec<f64>], alpha: f64, max_cond: usize) -> Skeleton {
    let k = columns.len();
    let mut adj: Vec<Vec<usize>> = (0..k)
        .map(|i| (0..k).filter(|&j| j != i).collect())
        .collect();

    for cond_size in 0..=max_cond {
        // Snapshot edges to visit this level (stable order).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        #[allow(clippy::needless_range_loop)]
        for i in 0..k {
            for &j in &adj[i] {
                if i < j {
                    edges.push((i, j));
                }
            }
        }
        for (i, j) in edges {
            if !adj[i].contains(&j) {
                continue;
            }
            // Conditioning candidates: neighbours of i excluding j.
            let pool: Vec<usize> = adj[i].iter().copied().filter(|&v| v != j).collect();
            let mut separated = false;
            for subset in subsets(&pool, cond_size) {
                let refs: Vec<&[f64]> = subset.iter().map(|&c| columns[c].as_slice()).collect();
                let test = fisher_z_test(&columns[i], &columns[j], &refs);
                if !test.dependent(alpha) {
                    separated = true;
                    break;
                }
            }
            if separated {
                adj[i].retain(|&v| v != j);
                adj[j].retain(|&v| v != i);
            }
        }
    }
    for list in &mut adj {
        list.sort_unstable();
    }
    Skeleton { adjacency: adj }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;

    fn noise(seed: u64, n: usize) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    #[test]
    fn subsets_enumerate_correctly() {
        let s = subsets(&[1, 2, 3], 2);
        assert_eq!(s, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert_eq!(subsets(&[1, 2], 0), vec![Vec::<usize>::new()]);
        assert!(subsets(&[1], 2).is_empty());
    }

    #[test]
    fn chain_skeleton_recovered() {
        // 0 → 1 → 2: skeleton edges {0-1, 1-2}, and 0-2 removed given 1.
        let n = 500;
        let x0 = noise(1, n);
        let e1 = noise(2, n);
        let e2 = noise(3, n);
        let x1: Vec<f64> = x0.iter().zip(&e1).map(|(a, e)| a + 0.3 * e).collect();
        let x2: Vec<f64> = x1.iter().zip(&e2).map(|(a, e)| a + 0.3 * e).collect();
        let s = pc_skeleton(&[x0, x1, x2], 0.05, 2);
        assert_eq!(
            s.adjacency,
            vec![vec![1], vec![0, 2], vec![1]],
            "indirect link must be cut by conditioning"
        );
    }

    #[test]
    fn independent_variables_disconnected() {
        let s = pc_skeleton(&[noise(4, 300), noise(5, 300), noise(6, 300)], 0.01, 1);
        assert_eq!(s.n_edges(), 0);
    }

    #[test]
    fn deterministic() {
        let cols = vec![noise(7, 200), noise(8, 200)];
        assert_eq!(pc_skeleton(&cols, 0.05, 1), pc_skeleton(&cols, 0.05, 1));
    }
}
