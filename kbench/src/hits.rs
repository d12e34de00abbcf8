//! Full-hit comparison: the correctness gate every reply passes through.

use koios_common::Json;
use koios_core::SearchResult;

/// Scores may differ from the reference by at most this much.
pub const SCORE_TOLERANCE: f64 = 1e-9;

/// One returned hit, in the form both the in-process and the HTTP path
/// can produce.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HitRow {
    pub set: u32,
    pub lb: f64,
    pub ub: f64,
    pub exact: bool,
}

/// The hits of an in-process result, in rank order.
pub fn from_result(result: &SearchResult) -> Vec<HitRow> {
    result
        .hits
        .iter()
        .map(|h| HitRow {
            set: h.set.0,
            lb: h.score.lb(),
            ub: h.score.ub(),
            exact: h.score.exact().is_some(),
        })
        .collect()
}

/// The hits of a `POST /search` reply, in rank order (`None` when the
/// reply does not have the wire shape).
pub fn from_reply(reply: &Json) -> Option<Vec<HitRow>> {
    reply
        .get("hits")?
        .as_array()?
        .iter()
        .map(|h| {
            Some(HitRow {
                set: u32::try_from(h.get("set")?.as_u64()?).ok()?,
                lb: h.get("lb")?.as_f64()?,
                ub: h.get("ub")?.as_f64()?,
                exact: h.get("exact")?.as_bool()?,
            })
        })
        .collect()
}

/// Whether `got` equals `want` hit for hit: same set ids in the same rank
/// order, the same exact/interval flag, and `lb`/`ub` within
/// [`SCORE_TOLERANCE`].
pub fn same(got: &[HitRow], want: &[HitRow]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.set == w.set
                && g.exact == w.exact
                && (g.lb - w.lb).abs() <= SCORE_TOLERANCE
                && (g.ub - w.ub).abs() <= SCORE_TOLERANCE
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(set: u32, lb: f64, ub: f64, exact: bool) -> HitRow {
        HitRow { set, lb, ub, exact }
    }

    #[test]
    fn compares_every_field_in_rank_order() {
        let want = vec![row(1, 3.0, 3.0, true), row(2, 2.0, 2.5, false)];
        assert!(same(&want, &want));
        let mut nudged = want.clone();
        nudged[0].lb += 1e-12;
        assert!(same(&nudged, &want));
        let mut swapped = want.clone();
        swapped.swap(0, 1);
        assert!(!same(&swapped, &want));
        let mut wrong_ub = want.clone();
        wrong_ub[1].ub = 2.6;
        assert!(!same(&wrong_ub, &want));
        let mut wrong_flag = want.clone();
        wrong_flag[1].exact = true;
        assert!(!same(&wrong_flag, &want));
        assert!(!same(&want[..1], &want));
    }

    #[test]
    fn parses_the_wire_shape() {
        let reply = Json::parse(
            r#"{"hits":[{"set":7,"name":"s7","lb":1.5,"ub":2,"exact":false}],"cache":"miss"}"#,
        )
        .unwrap();
        assert_eq!(from_reply(&reply), Some(vec![row(7, 1.5, 2.0, false)]));
        assert_eq!(from_reply(&Json::parse("{}").unwrap()), None);
    }
}
