use crate::pipeline::{expansion, native_cell, shuffle_keyed};
use crate::{JoinError, JoinInput, JoinSpec, Payload, Record, RecordPayload};
use asj_engine::{Cluster, ExecStats, HashPartitioner, ShuffleStats};
use asj_geom::{Point, Rect};
use asj_grid::{Grid, GridSpec};

/// A grid-partitioned dataset ready to serve range queries: the distributed
/// analog of a spatial table registered with a partitioner (every engine of
/// the paper's related work exposes this alongside joins).
#[derive(Debug)]
pub struct PartitionedPoints<P = Payload> {
    grid: Grid,
    parts: Vec<Vec<(u64, Record<P>)>>,
    pub build_shuffle: ShuffleStats,
    pub build_exec: ExecStats,
}

impl<P: RecordPayload> PartitionedPoints<P> {
    /// Shuffles `data` by native grid cell (unique assignment — range
    /// queries need no replication).
    pub fn build(
        cluster: &Cluster,
        spec: &JoinSpec,
        data: impl Into<JoinInput<Record<P>>>,
    ) -> Result<Self, JoinError> {
        spec.validate()?;
        let grid = Grid::new(GridSpec::with_factor(spec.bbox, spec.eps, spec.grid_factor));
        let data = data.into().partitioned(spec);
        let assign = native_cell(cluster.broadcast(grid.clone()));
        let partitioner = HashPartitioner::new(spec.num_partitions);
        let expand = expansion(&assign);
        let (keyed, _, shuffle, exec) = shuffle_keyed(
            cluster,
            (data.rows, data.remake.as_ref()),
            expand,
            &partitioner,
            "shuffle",
        )?;
        Ok(PartitionedPoints {
            grid,
            parts: keyed.into_rows()?.into_partitions(),
            build_shuffle: shuffle,
            build_exec: exec,
        })
    }

    pub fn len(&self) -> usize {
        self.parts.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(Vec::is_empty)
    }

    /// All record ids inside `region` (closed bounds), with per-cell pruning:
    /// partitions only scan records of cells intersecting the region.
    pub fn range_query(
        &self,
        cluster: &Cluster,
        region: Rect,
    ) -> Result<(Vec<u64>, ExecStats), JoinError> {
        if region.is_empty() {
            return Ok((Vec::new(), ExecStats::default()));
        }
        let hit = |cell: Rect| cell.intersects(&region);
        self.scan(cluster, hit, |p| region.contains(p))
    }

    /// All record ids within distance `radius` of `center`. A negative or
    /// NaN `radius` is a [`JoinError::InvalidSpec`].
    pub fn circle_query(
        &self,
        cluster: &Cluster,
        center: Point,
        radius: f64,
    ) -> Result<(Vec<u64>, ExecStats), JoinError> {
        if radius.is_nan() || radius < 0.0 {
            let reason = format!("must be non-negative, got {radius}");
            return Err(JoinError::InvalidSpec {
                field: "radius",
                reason,
            });
        }
        let r2 = radius * radius;
        let hit = |cell: Rect| cell.mindist2(center) <= r2;
        self.scan(cluster, hit, |p| p.dist2(center) <= r2)
    }

    /// The sorted ids of the records that `hit` accepts, scanning only the
    /// cells whose rectangle `cell_hit` accepts.
    fn scan(
        &self,
        cluster: &Cluster,
        cell_hit: impl Fn(Rect) -> bool + Sync,
        hit: impl Fn(Point) -> bool + Sync,
    ) -> Result<(Vec<u64>, ExecStats), JoinError> {
        let grid = &self.grid;
        let refs: Vec<&Vec<(u64, Record<P>)>> = self.parts.iter().collect();
        let (found, exec) = cluster.try_run_stage("task", refs, |_, part| {
            let cell_of = |cell: u64| grid.cell_rect(grid.cell_at(cell as usize));
            let rows = part
                .iter()
                .filter(|(cell, rec)| cell_hit(cell_of(*cell)) && hit(rec.point));
            Ok(rows.map(|(_, rec)| rec.id).collect::<Vec<u64>>())
        })?;
        let mut out: Vec<u64> = found.into_iter().flatten().collect();
        out.sort_unstable();
        Ok((out, exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_records;
    use asj_engine::ClusterConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (Cluster, PartitionedPoints, Vec<Record>) {
        let cluster = Cluster::new(ClusterConfig::with_threads(3, 2));
        let spec = JoinSpec::new(Rect::new(0.0, 0.0, 20.0, 20.0), 1.0).with_partitions(12);
        let mut rng = StdRng::seed_from_u64(314);
        let pts: Vec<Point> = (0..800)
            .map(|_| Point::new(rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)))
            .collect();
        let records = to_records(&pts, 0);
        let table = PartitionedPoints::build(&cluster, &spec, records.clone()).expect("join runs");
        (cluster, table, records)
    }

    #[test]
    fn range_query_matches_linear_scan() {
        let (cluster, table, records) = setup();
        assert_eq!(table.len(), 800);
        for region in [
            Rect::new(2.0, 3.0, 7.5, 9.0),
            Rect::new(0.0, 0.0, 20.0, 20.0),
            Rect::new(19.0, 19.0, 25.0, 25.0),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
        ] {
            let (got, _) = table.range_query(&cluster, region).expect("join runs");
            let mut want: Vec<u64> = records
                .iter()
                .filter(|r| region.contains(r.point))
                .map(|r| r.id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "{region:?}");
        }
    }

    #[test]
    fn circle_query_matches_linear_scan() {
        let (cluster, table, records) = setup();
        for (center, radius) in [
            (Point::new(10.0, 10.0), 3.0),
            (Point::new(0.0, 0.0), 5.0),
            (Point::new(10.0, 10.0), 0.0),
            (Point::new(10.0, 10.0), 100.0),
        ] {
            let (got, _) = table
                .circle_query(&cluster, center, radius)
                .expect("join runs");
            let mut want: Vec<u64> = records
                .iter()
                .filter(|r| r.point.dist2(center) <= radius * radius)
                .map(|r| r.id)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "center {center:?} radius {radius}");
        }
    }

    #[test]
    fn bad_radius_is_a_typed_error() {
        let (cluster, table, _) = setup();
        for radius in [-1.0, f64::NAN] {
            match table.circle_query(&cluster, Point::new(1.0, 1.0), radius) {
                Err(JoinError::InvalidSpec {
                    field: "radius", ..
                }) => {}
                other => panic!("radius {radius}: expected InvalidSpec, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_region_is_empty() {
        let (cluster, table, _) = setup();
        let (got, _) = table
            .range_query(&cluster, Rect::empty())
            .expect("join runs");
        assert!(got.is_empty());
        assert!(!table.is_empty());
    }
}
